package experiments

// Fragment heat reporting over completed figures. Each run carries its
// own HeatSnapshot (Options.Heat); the reducers here merge a strategy's
// snapshots across the sweep — counters sum and the per-fragment
// queue-wait histograms merge bucket-wise via obs.Histogram.Merge, the
// same cross-job reduction path the harness's parallel workers feed —
// and render the merged view as a table. All reductions walk points in
// canonical figure order, so the output is byte-identical at any worker
// count.

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/stats"
)

// sweepPoint is one point of a figure sweep — closed-loop (Point) or
// open-system (OpenPoint) — as the shared per-strategy reducers see it.
type sweepPoint interface {
	strategy() string
	heat() *obs.HeatSnapshot
}

func (p Point) strategy() string            { return p.Strategy }
func (p Point) heat() *obs.HeatSnapshot     { return p.Result.Heat }
func (p OpenPoint) strategy() string        { return p.Strategy }
func (p OpenPoint) heat() *obs.HeatSnapshot { return p.Result.Heat }

// strategiesOf lists the points' strategies in first-appearance order.
func strategiesOf[P sweepPoint](points []P) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range points {
		if s := p.strategy(); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// strategyHeat merges the strategy's per-point heat snapshots in point
// order. Nil when heat was not armed (or the strategy has no points).
func strategyHeat[P sweepPoint](points []P, strategy string) *obs.HeatSnapshot {
	var snaps []*obs.HeatSnapshot
	topK := 0
	for _, p := range points {
		if h := p.heat(); p.strategy() == strategy && h != nil {
			snaps = append(snaps, h)
			topK = h.TopK
		}
	}
	return obs.MergeHeatSnapshots(snaps, topK)
}

// StrategyHeat merges the strategy's per-point heat snapshots across the
// MPL sweep. Nil when heat was not armed (or the strategy has no points).
func (fr FigureResult) StrategyHeat(strategy string) *obs.HeatSnapshot {
	return strategyHeat(fr.Points, strategy)
}

// HeatTable renders the strategy's merged heatmap: one row per fragment
// in canonical order, concentration indices in the title. Nil when heat
// was not armed.
func (fr FigureResult) HeatTable(strategy string) *stats.Table {
	s := fr.StrategyHeat(strategy)
	if s == nil {
		return nil
	}
	return heatTable(fmt.Sprintf("Figure %s: %s — fragment heat", fr.Figure.ID, strategy), s)
}

// StrategyHeat merges the strategy's per-λ heat snapshots across the
// offered-load sweep. Nil when heat was not armed.
func (fr OpenFigureResult) StrategyHeat(strategy string) *obs.HeatSnapshot {
	return strategyHeat(fr.Points, strategy)
}

// HeatTable renders the strategy's merged open-system heatmap. Nil when
// heat was not armed.
func (fr OpenFigureResult) HeatTable(strategy string) *stats.Table {
	s := fr.StrategyHeat(strategy)
	if s == nil {
		return nil
	}
	return heatTable(fmt.Sprintf("Figure %s: %s — fragment heat (open system)", fr.Figure.ID, strategy), s)
}

// heatTable renders a snapshot: counters, locality, hit rate and
// queue-wait percentiles per fragment.
func heatTable(title string, s *obs.HeatSnapshot) *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("%s (top-%d share %.3f, HHI %.3f, Gini %.3f)",
			title, s.TopK, s.TopKShare, s.HHI, s.Gini),
		"fragment", "node", "reads", "pages", "share", "local", "remote",
		"hit rate", "wait p50ms", "wait p99ms", "size")
	for _, r := range s.Rows {
		share := 0.0
		if s.TotalPages > 0 {
			share = float64(r.Pages()) / float64(s.TotalPages)
		}
		hit := 0.0
		if n := r.BufHits + r.BufMisses; n > 0 {
			hit = float64(r.BufHits) / float64(n)
		}
		tb.AddRow(r.Label(), r.Node, r.Reads, r.Pages(),
			fmt.Sprintf("%.3f", share),
			r.Local, r.Remote,
			fmt.Sprintf("%.2f", hit),
			fmt.Sprintf("%.2f", r.WaitStats.P50),
			fmt.Sprintf("%.2f", r.WaitStats.P99),
			r.SizePages)
	}
	return tb
}

// HotLine renders one strategy's hot-fragment report as a single line
// ("hot fragments fig/strategy: TENK@n7 31.2% ..."), or "" when heat was
// not armed or nothing was read.
func HotLine(figID, strategy string, s *obs.HeatSnapshot) string {
	if s == nil {
		return ""
	}
	hot := s.HotFragments()
	if len(hot) == 0 {
		return ""
	}
	line := fmt.Sprintf("hot fragments %s/%s:", figID, strategy)
	for _, h := range hot {
		label := h.Relation
		if h.Kind != "" && h.Kind != "primary" {
			label += ":" + h.Kind
		}
		line += fmt.Sprintf(" %s@n%d %.1f%%", label, h.Node, 100*h.Share)
	}
	return line
}
