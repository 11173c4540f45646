package experiments

// Degraded-mode campaign: how does each declustering strategy hold up when
// k of the machine's disks fail-stop early in the run? Every machine runs
// with chained replicas and the degraded scheduler, so queries that would
// have needed a dead disk reroute to the chain successor; the interesting
// output is the throughput each strategy retains and the outcome tally
// (ok / retried / timed-out / failed) behind it.

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DegradedPoint is one measured (strategy, failed-disk count, MPL) cell.
type DegradedPoint struct {
	Strategy string
	K        int // disks fail-stopped at the start of the run
	MPL      int
	Result   gamma.RunResult
}

// DegradedResult holds a completed degraded-mode campaign.
type DegradedResult struct {
	Figure  Figure
	Options Options
	Ks      []int
	Points  []DegradedPoint
}

// KillSpec builds the fault spec that fail-stops k disks spread evenly over
// a p-node machine, all shortly after the run starts (1ms in, so placement
// and routing are warm but the measurement window sees the degraded
// machine). k = 0 yields an empty spec: degraded scheduling with nothing
// actually broken, the baseline overhead measurement.
func KillSpec(k, p int) *fault.Spec {
	s := &fault.Spec{}
	for i := 0; i < k && i < p; i++ {
		s.Events = append(s.Events, fault.Event{
			At: sim.Millisecond, Kind: fault.DiskFail, Node: i * p / k,
		})
	}
	return s
}

// RunDegraded sweeps each figure's strategies across failed-disk counts ks
// (nil defaults to {0, 1, 2}) and the MPL sweep, with chained replicas on,
// returning one result per figure. Jobs run on the campaign engine like a
// figure campaign; per-job fault-event counts land in the manifest.
func RunDegraded(figs []Figure, ks []int, opts Options, copts CampaignOptions) ([]DegradedResult, harness.Manifest, error) {
	opts = opts.withDefaults()
	opts.ChainedReplicas = true
	if len(ks) == 0 {
		ks = []int{0, 1, 2}
	}
	builds, err := buildFigures(figs, opts)
	if err != nil {
		return nil, harness.Manifest{}, err
	}
	out := make([]DegradedResult, len(builds))
	var l jobList
	for i, fb := range builds {
		dr := &out[i]
		*dr = DegradedResult{Figure: fb.fig, Options: opts, Ks: ks}
		for si, name := range fb.fig.Strategies {
			for _, k := range ks {
				kOpts := opts
				kOpts.Faults = KillSpec(k, opts.Processors)
				cfg := ConfigFor(kOpts)
				for _, mpl := range opts.MPLs {
					l.addRun(fmt.Sprintf("fig%s/%s/k%d/mpl%d", fb.fig.ID, name, k, mpl), fb, fb.placements[si], cfg,
						opts.runSpec(mpl), func(res gamma.RunResult) {
							dr.Points = append(dr.Points, DegradedPoint{Strategy: name, K: k, MPL: mpl, Result: res})
						})
				}
			}
		}
	}
	manifest, err := l.run(copts)
	return out, manifest, err
}

// Outcomes sums the outcome tallies across every measured point.
func (dr DegradedResult) Outcomes() gamma.Outcomes {
	var o gamma.Outcomes
	for _, p := range dr.Points {
		o.OK += p.Result.Outcomes.OK
		o.Retried += p.Result.Outcomes.Retried
		o.TimedOut += p.Result.Outcomes.TimedOut
		o.Failed += p.Result.Outcomes.Failed
	}
	return o
}

// Table renders the campaign: one row per (strategy, k, MPL) with the
// retained throughput and the outcome breakdown.
func (dr DegradedResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Degraded mode (%s, chained replicas): throughput under k failed disks", dr.Figure.ID),
		"strategy", "k", "MPL", "q/s", "resp ms", "ok", "retried", "timed out", "failed", "op retries")
	for _, p := range dr.Points {
		r := p.Result
		tb.AddRow(p.Strategy, p.K, p.MPL,
			fmt.Sprintf("%.2f", r.ThroughputQPS),
			fmt.Sprintf("%.1f", r.MeanResponseMS),
			r.Outcomes.OK, r.Outcomes.Retried, r.Outcomes.TimedOut, r.Outcomes.Failed,
			r.RetriesTotal)
	}
	return tb
}
