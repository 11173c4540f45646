package experiments

// Shared-scan campaign: how much disk work does predicate-grouped batching
// save each declustering strategy? Every (strategy, MPL) point runs twice —
// sharing off, then sharing on — over the same hot-spot workload: the off
// run is the baseline (and stays byte-identical to a sharing-free build),
// the on run batches overlapping selections into shared disk passes. The
// interesting output is the per-query disk-read saving and the batching
// shape (ops/batch, pages deduped) behind it.

import (
	"fmt"

	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/stats"
)

// Hot-spot overlay for the sharing campaign: SharingHotProb of the queries
// target the first SharingHotFrac of the attribute domain. Without the
// overlay the paper's uniform mixes rarely overlap inside a batching
// window; with it the campaign measures the regime sharing is for.
const (
	SharingHotProb = 0.8
	SharingHotFrac = 0.05
)

// SharingPoint is one measured (strategy, MPL) cell: the same workload with
// the shared-scan manager off and on.
type SharingPoint struct {
	Strategy string
	MPL      int
	Off      gamma.RunResult
	On       gamma.RunResult
}

// SavedFrac is the fraction of per-query disk reads sharing eliminated.
func (p SharingPoint) SavedFrac() float64 {
	if p.Off.DiskReadsPerQry <= 0 {
		return 0
	}
	return 1 - p.On.DiskReadsPerQry/p.Off.DiskReadsPerQry
}

// SharingResult holds a completed shared-scan campaign.
type SharingResult struct {
	Figure   Figure
	Options  Options
	WindowMS float64
	Points   []SharingPoint
}

// RunSharing sweeps each figure's strategies across the MPL sweep, once
// with sharing off and once with the shared-scan manager armed at windowMS
// (<= 0 selects the gamma default window), both under the hot-spot
// overlay, returning one result per figure. Jobs run on the campaign
// engine like a figure campaign. The sharing campaign is its own mode, so
// fault options are rejected up front (the machine layer composes sharing
// with faults; the campaign does not).
func RunSharing(figs []Figure, windowMS float64, opts Options, copts CampaignOptions) ([]SharingResult, harness.Manifest, error) {
	opts = opts.withDefaults()
	if opts.Faults != nil || opts.ChainedReplicas {
		return nil, harness.Manifest{}, fmt.Errorf(
			"experiments: sharing campaign is mutually exclusive with faults/replicas (one campaign mode per run)")
	}
	builds, err := buildFigures(figs, opts)
	if err != nil {
		return nil, harness.Manifest{}, err
	}

	offCfg := ConfigFor(opts)
	// Sharing targets Table 2's disk-bound regime: with the default pool
	// sized to keep the index resident, the hot set's data pages largely
	// survive in memory between queries and there is little disk work to
	// share. A third of the default pool forces the re-read traffic the
	// manager exists to deduplicate. Both modes run with the same pool, so
	// the off column is still the like-for-like baseline.
	offCfg.BufferPages = (offCfg.BufferPages + 2) / 3
	onOpts := opts
	onOpts.ArmSharing(windowMS)
	onCfg := ConfigFor(onOpts)
	onCfg.BufferPages = offCfg.BufferPages

	out := make([]SharingResult, len(builds))
	var l jobList
	for i, fb := range builds {
		sr := &out[i]
		*sr = SharingResult{Figure: fb.fig, Options: opts, WindowMS: windowMS}
		fb.mix = fb.mix.WithHotSpot(SharingHotProb, SharingHotFrac)
		for si, name := range fb.fig.Strategies {
			// Each strategy's off jobs precede its on jobs, so an on run
			// files after its off baseline and completes the point.
			off := make([]*gamma.RunResult, len(opts.MPLs))
			for mi, mpl := range opts.MPLs {
				l.addRun(fmt.Sprintf("fig%s/%s/off/mpl%d", fb.fig.ID, name, mpl), fb, fb.placements[si], offCfg,
					opts.runSpec(mpl), func(res gamma.RunResult) { off[mi] = &res })
			}
			for mi, mpl := range opts.MPLs {
				l.addRun(fmt.Sprintf("fig%s/%s/on/mpl%d", fb.fig.ID, name, mpl), fb, fb.placements[si], onCfg,
					opts.runSpec(mpl), func(res gamma.RunResult) {
						if off[mi] != nil {
							sr.Points = append(sr.Points, SharingPoint{Strategy: name, MPL: mpl, Off: *off[mi], On: res})
						}
					})
			}
		}
	}
	manifest, err := l.run(copts)
	return out, manifest, err
}

// MaxSaved returns the campaign's best per-query disk-read saving and the
// point that achieved it (zero value when nothing was measured).
func (sr SharingResult) MaxSaved() (float64, SharingPoint) {
	var best SharingPoint
	saved := -1.0
	for _, p := range sr.Points {
		if s := p.SavedFrac(); s > saved {
			saved, best = s, p
		}
	}
	if saved < 0 {
		return 0, best
	}
	return saved, best
}

// Table renders the campaign: one row per (strategy, MPL) with throughput
// and disk reads per query under both modes, the saving, and the batching
// shape.
func (sr SharingResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Shared scans (%s, hot spot %.0f%%/%.0f%%): disk reads per query, sharing off vs on",
			sr.Figure.ID, 100*SharingHotProb, 100*SharingHotFrac),
		"strategy", "MPL", "q/s off", "q/s on", "reads/qry off", "reads/qry on",
		"saved", "ops/batch", "pages deduped")
	for _, p := range sr.Points {
		opsPerBatch, deduped := "-", "-"
		if s := p.On.Sharing; s != nil {
			opsPerBatch = fmt.Sprintf("%.2f", s.MeanBatchSize())
			deduped = fmt.Sprintf("%d", s.PagesSaved())
		}
		tb.AddRow(p.Strategy, p.MPL,
			fmt.Sprintf("%.2f", p.Off.ThroughputQPS),
			fmt.Sprintf("%.2f", p.On.ThroughputQPS),
			fmt.Sprintf("%.1f", p.Off.DiskReadsPerQry),
			fmt.Sprintf("%.1f", p.On.DiskReadsPerQry),
			fmt.Sprintf("%.1f%%", 100*p.SavedFrac()),
			opsPerBatch, deduped)
	}
	return tb
}

// Summary emits one greppable line per point (CI smoke-tests these).
func (sr SharingResult) Summary() []string {
	var out []string
	for _, p := range sr.Points {
		out = append(out, fmt.Sprintf(
			"sharing fig%s/%s mpl=%d: reads/qry %.1f -> %.1f (%.1f%% saved)",
			sr.Figure.ID, p.Strategy, p.MPL,
			p.Off.DiskReadsPerQry, p.On.DiskReadsPerQry, 100*p.SavedFrac()))
	}
	return out
}
