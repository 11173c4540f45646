package gamma

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rebalance"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RunSpec controls one closed-workload measurement.
type RunSpec struct {
	// MPL is the multiprogramming level: the number of terminals, each
	// submitting its next query the moment the previous one completes
	// (zero think time), as in the paper's figures.
	MPL int
	// WarmupQueries completions are discarded before measurement starts.
	WarmupQueries int
	// MeasureQueries completions constitute the measurement window.
	MeasureQueries int
	// Seed varies the workload sampling; defaults to the machine seed.
	Seed int64
	// MaxSimTime aborts a run that fails to complete (guard against
	// misconfiguration); defaults to 30 simulated minutes.
	MaxSimTime sim.Duration
}

// ClassStats summarizes one query class within a measurement window.
type ClassStats struct {
	Completed      int
	MeanResponseMS float64
	P95ResponseMS  float64
	MeanProcsUsed  float64
}

// NodeUtil is one operator node's share of the measurement window: the
// per-node breakdown behind RunResult's machine-wide means. Comparing rows
// exposes execution skew — range declustering concentrates a selection's
// work on few nodes while MAGIC and BERD spread it (Section 7).
type NodeUtil struct {
	Node          int     `json:"node"`
	CPUUtil       float64 `json:"cpu_util"`
	DiskUtil      float64 `json:"disk_util"`
	DiskReads     int64   `json:"disk_reads"`
	BufferHitRate float64 `json:"buffer_hit_rate"`
	OpsExecuted   int64   `json:"ops_executed"`
	TuplesShipped int64   `json:"tuples_shipped"`
}

// Outcomes tallies per-query outcomes over the measurement window. Without
// faults every completion is OK (or Failed, for a query a node refused).
type Outcomes struct {
	OK       int `json:"ok"`
	Retried  int `json:"retried"`
	TimedOut int `json:"timed_out"`
	Failed   int `json:"failed"`
}

// Succeeded reports the queries that produced full results.
func (o Outcomes) Succeeded() int { return o.OK + o.Retried }

// String renders the tally in the fixed order the CI smoke greps for.
func (o Outcomes) String() string {
	return fmt.Sprintf("ok=%d retried=%d timed_out=%d failed=%d",
		o.OK, o.Retried, o.TimedOut, o.Failed)
}

// RunResult summarizes a measurement window.
type RunResult struct {
	Strategy        string
	Mix             string
	MPL             int
	Completed       int
	ElapsedSim      sim.Duration
	ThroughputQPS   float64
	MeanResponseMS  float64
	P95ResponseMS   float64
	MeanProcsUsed   float64
	MeanTuples      float64
	CPUUtilization  float64 // mean over operator nodes
	DiskUtilization float64
	BufferHitRate   float64
	DiskReadsPerQry float64
	// PerClass breaks response time and processor usage down by query
	// class (the paper discusses QA and QB behaviour separately).
	PerClass map[string]ClassStats
	// NodeStats is the per-node breakdown of the utilization means above,
	// in node order. DiskSkew and CPUSkew condense it to max/mean ratios
	// (1.0 = perfectly balanced; higher = more execution skew).
	NodeStats []NodeUtil `json:"node_stats,omitempty"`
	DiskSkew  float64    `json:"disk_skew,omitempty"`
	CPUSkew   float64    `json:"cpu_skew,omitempty"`
	// Metrics carries the engine registry snapshot when Config.Metrics is
	// on: latency histograms (queueing vs service per facility), buffer
	// and network counters, query fan-out and response distributions.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Series is the windowed time-series snapshot when Config.Telemetry is
	// armed: per-node utilization/queue-depth and machine skew over the
	// measurement window (the sampler is rebased at the warm-up boundary).
	Series []obs.SeriesData `json:"time_series,omitempty"`
	// Heat is the per-fragment access snapshot when Config.Heat is armed
	// (counters cover the measurement window only), and HotFragments
	// ranks its hottest entries — the detector feed an adaptive
	// re-declustering loop subscribes to.
	Heat         *obs.HeatSnapshot `json:"heat,omitempty"`
	HotFragments []obs.HotFragment `json:"hot_fragments,omitempty"`
	// Sharing is the shared-scan manager's tally when Config.Sharing is
	// armed (counters cover the measurement window only).
	Sharing *exec.SharingStats `json:"sharing,omitempty"`
	// Rebalance is the membership controller's history when Config.Elastic
	// is armed: every executed (or refused) transition with its staging,
	// copy and cutover timestamps plus the data volume moved.
	Rebalance *rebalance.Report `json:"rebalance,omitempty"`

	// Degraded-mode accounting. Outcomes tallies every completion in the
	// window (Completed and the response statistics cover only the
	// successful ones); RetriesTotal counts operator redispatches;
	// FaultLog is the injector's applied-fault log for the whole run.
	Outcomes     Outcomes       `json:"outcomes,omitempty"`
	RetriesTotal int64          `json:"retries_total,omitempty"`
	FaultLog     []fault.Record `json:"fault_log,omitempty"`
}

// String renders the headline numbers.
func (r RunResult) String() string {
	return fmt.Sprintf("%s/%s MPL=%d: %.2f q/s, resp %.1fms, %.2f procs/query",
		r.Strategy, r.Mix, r.MPL, r.ThroughputQPS, r.MeanResponseMS, r.MeanProcsUsed)
}

// Run executes one closed-workload experiment on a fresh machine state and
// returns the measured steady-state statistics. The machine is reset first,
// so runs are independent and deterministic for a (machine seed, run seed)
// pair.
func (m *Machine) Run(mix workload.Mix, spec RunSpec) (RunResult, error) {
	if spec.MPL <= 0 {
		return RunResult{}, fmt.Errorf("gamma: MPL must be positive, got %d", spec.MPL)
	}
	if spec.WarmupQueries < 0 || spec.MeasureQueries <= 0 {
		return RunResult{}, fmt.Errorf("gamma: bad warmup/measure spec %d/%d",
			spec.WarmupQueries, spec.MeasureQueries)
	}
	if spec.MaxSimTime <= 0 {
		spec.MaxSimTime = 30 * 60 * sim.Second
	}
	seed := spec.Seed
	if seed == 0 {
		seed = m.Cfg.Seed
	}
	m.Reset()
	eng := m.Eng
	access := mix.AccessChooser()
	m.Host.SetAccessPolicy(m.Relation.Name, access)
	card := m.Relation.Cardinality()
	streams := rng.NewFactory(seed)

	type classAcc struct {
		resp  stats.BatchMeans
		procs stats.Accumulator
	}
	var (
		completed   int
		measuring   bool
		measureFrom sim.Time
		measured    int
		resp        stats.BatchMeans
		procs       stats.Accumulator
		tuples      stats.Accumulator
		diskReads0  int64
		perClass    = map[string]*classAcc{}
		outcomes    Outcomes
		retriesTot  int64
	)
	target := spec.WarmupQueries + spec.MeasureQueries

	for term := 0; term < spec.MPL; term++ {
		src := streams.Stream(fmt.Sprintf("terminal%d", term))
		eng.Spawn(fmt.Sprintf("terminal%d", term), func(p *sim.Proc) {
			for {
				pred, cls := mix.Sample(src, card)
				res := m.Host.Submit(p, plan.Select(m.Relation.Name, pred, access(pred)))
				completed++
				if measuring {
					switch res.Outcome {
					case exec.OutcomeOK:
						outcomes.OK++
					case exec.OutcomeRetried:
						outcomes.Retried++
					case exec.OutcomeTimedOut:
						outcomes.TimedOut++
					case exec.OutcomeFailed:
						outcomes.Failed++
					}
					retriesTot += int64(res.Retries)
					// Abandoned queries count toward the window's completions
					// but not its performance statistics: a timed-out query
					// has no meaningful response time.
					if res.Outcome.Succeeded() {
						resp.Add(res.ResponseMS())
						procs.Add(float64(res.ProcessorsUsed))
						tuples.Add(float64(res.Tuples))
						ca := perClass[cls.Name]
						if ca == nil {
							ca = &classAcc{}
							perClass[cls.Name] = ca
						}
						ca.resp.Add(res.ResponseMS())
						ca.procs.Add(float64(res.ProcessorsUsed))
						measured++
					}
				}
				if completed == spec.WarmupQueries && !measuring {
					measuring = true
					measureFrom = p.Now()
					m.resetStats()
					diskReads0 = m.totalDiskReads()
					m.Telemetry.Rebase(int64(p.Now()))
				}
				if completed >= target {
					eng.Stop()
					return
				}
			}
		})
	}
	// Degenerate warmup: measurement starts immediately.
	if spec.WarmupQueries == 0 {
		measuring = true
	}
	m.spawnTelemetry()

	if err := eng.RunUntil(sim.Time(spec.MaxSimTime)); err != nil {
		return RunResult{}, err
	}
	if completed < target {
		return RunResult{}, fmt.Errorf("gamma: run hit MaxSimTime with %d/%d queries done",
			completed, target)
	}

	elapsed := sim.Duration(eng.Now() - measureFrom)
	if elapsed <= 0 {
		return RunResult{}, fmt.Errorf("gamma: empty measurement window")
	}
	out := RunResult{
		Strategy:      m.Placement.Name(),
		Mix:           mix.Name,
		MPL:           spec.MPL,
		Completed:     measured,
		ElapsedSim:    elapsed,
		ThroughputQPS: float64(measured) / elapsed.Seconds(),
		MeanProcsUsed: procs.Mean(),
		MeanTuples:    tuples.Mean(),
		Outcomes:      outcomes,
		RetriesTotal:  retriesTot,
	}
	if measured > 0 {
		out.DiskReadsPerQry = float64(m.totalDiskReads()-diskReads0) / float64(measured)
	}
	if m.Injector != nil {
		out.FaultLog = m.Injector.Log()
	}
	if m.Telemetry != nil {
		out.Series = m.Telemetry.Snapshot()
	}
	if m.Heat != nil {
		out.Heat = m.Heat.Snapshot(m.Cfg.Heat.topK())
		out.HotFragments = out.Heat.HotFragments()
	}
	out.Sharing = m.sharingStats()
	out.Rebalance = m.rebalanceReport()
	mean, _ := resp.Interval(10)
	out.MeanResponseMS = mean
	out.P95ResponseMS = resp.Percentile(95)

	var cpu, disk, hits, total float64
	out.NodeStats = make([]NodeUtil, len(m.Nodes))
	for i, n := range m.Nodes {
		cpu += n.CPU.Utilization()
		disk += n.Disk.Utilization()
		hits += float64(n.Pool.Hits())
		total += float64(n.Pool.Hits() + n.Pool.Misses())
		out.NodeStats[i] = NodeUtil{
			Node:          n.ID,
			CPUUtil:       n.CPU.Utilization(),
			DiskUtil:      n.Disk.Utilization(),
			DiskReads:     n.Disk.Reads(),
			BufferHitRate: n.Pool.HitRate(),
			OpsExecuted:   n.OpsExecuted,
			TuplesShipped: n.TuplesShipped,
		}
	}
	out.CPUUtilization = cpu / float64(len(m.Nodes))
	out.DiskUtilization = disk / float64(len(m.Nodes))
	if total > 0 {
		out.BufferHitRate = hits / total
	}
	out.DiskSkew = skewRatio(out.NodeStats, func(u NodeUtil) float64 { return u.DiskUtil })
	out.CPUSkew = skewRatio(out.NodeStats, func(u NodeUtil) float64 { return u.CPUUtil })
	if reg := eng.Metrics(); reg != nil {
		for _, u := range out.NodeStats {
			reg.Gauge(fmt.Sprintf("node%d.cpu.util", u.Node)).Set(u.CPUUtil)
			reg.Gauge(fmt.Sprintf("node%d.disk.util", u.Node)).Set(u.DiskUtil)
		}
		snap := reg.Snapshot()
		out.Metrics = &snap
	}
	out.PerClass = make(map[string]ClassStats, len(perClass))
	for name, ca := range perClass {
		clsMean, _ := ca.resp.Interval(10)
		out.PerClass[name] = ClassStats{
			Completed:      ca.resp.N(),
			MeanResponseMS: clsMean,
			P95ResponseMS:  ca.resp.Percentile(95),
			MeanProcsUsed:  ca.procs.Mean(),
		}
	}
	return out, nil
}

// skewRatio reports max/mean of a per-node metric: 1.0 when the load is
// perfectly balanced, approaching the node count when one node does all
// the work. Returns 0 when the metric is identically zero.
func skewRatio(nodes []NodeUtil, metric func(NodeUtil) float64) float64 {
	var max, sum float64
	for _, u := range nodes {
		v := metric(u)
		sum += v
		if v > max {
			max = v
		}
	}
	if sum <= 0 {
		return 0
	}
	return max / (sum / float64(len(nodes)))
}

// resetStats clears utilization and counter state at the start of the
// measurement window.
func (m *Machine) resetStats() {
	for _, n := range m.Nodes {
		n.CPU.ResetStats()
		n.Disk.ResetStats()
		n.Pool.ResetStats()
		n.ResetStats()
	}
	m.Net.ResetStats()
	m.Heat.Reset()
	if m.Host.Shared != nil {
		m.Host.Shared.ResetStats()
	}
	if reg := m.Eng.Metrics(); reg != nil {
		reg.Reset()
	}
}

// sharingStats assembles the shared-scan tally — the host manager's flush
// counters plus the page dedup counters summed over the operator nodes —
// or nil when sharing is off.
// rebalanceReport snapshots the membership controller's history (nil when
// elasticity is off).
func (m *Machine) rebalanceReport() *rebalance.Report {
	if m.Rebalancer == nil {
		return nil
	}
	r := m.Rebalancer.Report()
	return &r
}

func (m *Machine) sharingStats() *exec.SharingStats {
	if m.Host.Shared == nil {
		return nil
	}
	s := m.Host.Shared.Stats()
	for _, n := range m.Nodes {
		s.PagesRequested += n.SharedPagesRequested
		s.PagesRead += n.SharedPagesRead
	}
	return &s
}

func (m *Machine) totalDiskReads() int64 {
	var t int64
	for _, n := range m.Nodes {
		t += n.Disk.Reads()
	}
	return t
}
