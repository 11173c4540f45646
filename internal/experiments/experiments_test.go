package experiments

import (
	"repro/internal/workload"
	"strings"
	"testing"
)

// Shape tests: these run the paper's figures at QuickScale and assert the
// qualitative results the paper reports — who wins, roughly by how much,
// and how many processors each strategy employs. Absolute throughputs are
// not asserted (our substrate is a reconstruction, not the authors'
// testbed).

func runFig(t *testing.T, id string) FigureResult {
	t.Helper()
	fig, err := FigureByID(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(fig, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func tp(t *testing.T, fr FigureResult, strategy string, mpl int) float64 {
	t.Helper()
	v, ok := fr.Throughput(strategy, mpl)
	if !ok {
		t.Fatalf("no %s point at MPL %d", strategy, mpl)
	}
	if v <= 0 {
		t.Fatalf("non-positive throughput for %s at MPL %d", strategy, mpl)
	}
	return v
}

func TestFigureListComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range Figures() {
		ids[f.ID] = true
		if f.Title == "" || f.Mix == nil || len(f.Strategies) == 0 {
			t.Fatalf("figure %s incomplete", f.ID)
		}
	}
	for _, want := range []string{"8a", "8b", "9", "10a", "10b", "11a", "11b", "12a", "12b"} {
		if !ids[want] {
			t.Fatalf("missing figure %s", want)
		}
	}
	if _, err := FigureByID("nope"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	p := PaperScale()
	if o.Cardinality != p.Cardinality || o.Processors != p.Processors ||
		len(o.MPLs) != len(p.MPLs) || o.Seed != p.Seed {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestBuildPlacementUnknownStrategy(t *testing.T) {
	fig, _ := FigureByID("8a")
	_ = fig
	if _, err := BuildPlacement("nope", nil, Figures()[0].Mix(100), QuickScale()); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// Figure 8a: low-low, low correlation. The paper: MAGIC > BERD (~7%) >
// range; MAGIC averages ~6.4 processors, range ~16.5, BERD ~6.
func TestFig8aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fr := runFig(t, "8a")
	magic, berd, rng := tp(t, fr, "magic", 64), tp(t, fr, "berd", 64), tp(t, fr, "range", 64)
	if magic <= berd {
		t.Errorf("MAGIC (%.1f) must beat BERD (%.1f) at MPL 64", magic, berd)
	}
	if magic <= rng {
		t.Errorf("MAGIC (%.1f) must beat range (%.1f) at MPL 64", magic, rng)
	}
	if berd <= rng*0.9 {
		t.Errorf("BERD (%.1f) should not trail range (%.1f) badly on low-low", berd, rng)
	}
	if p := fr.MeanProcs("magic"); p < 3 || p > 10 {
		t.Errorf("MAGIC used %.2f processors/query, paper ~6.4", p)
	}
	if p := fr.MeanProcs("range"); p < 12 || p > 18 {
		t.Errorf("range used %.2f processors/query, paper ~16.5", p)
	}
	// Throughput must scale well beyond MPL 1 for the localized strategies.
	if tp(t, fr, "magic", 64) < 5*tp(t, fr, "magic", 1) {
		t.Error("MAGIC throughput barely scales with MPL")
	}
}

// Figure 8b: low-low, high correlation. Both multi-attribute strategies
// localize to ~1-2 processors; MAGIC beats BERD (paper: ~45% at high MPL,
// no auxiliary-relation access) and both beat range.
func TestFig8bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fr := runFig(t, "8b")
	magic, berd, rng := tp(t, fr, "magic", 64), tp(t, fr, "berd", 64), tp(t, fr, "range", 64)
	if magic <= berd {
		t.Errorf("MAGIC (%.1f) must beat BERD (%.1f)", magic, berd)
	}
	if berd <= rng {
		t.Errorf("BERD (%.1f) must beat range (%.1f) under high correlation", berd, rng)
	}
	if p := fr.MeanProcs("berd"); p > 2.5 {
		t.Errorf("BERD used %.2f processors/query; high correlation should localize to ~1", p)
	}
	if p := fr.MeanProcs("magic"); p > 4 {
		t.Errorf("MAGIC used %.2f processors/query; high correlation should localize", p)
	}
}

// Figure 9: doubling QB's selectivity widens BERD's fan-out; the paper has
// MAGIC ahead by ~50% at MPL 64.
func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fr := runFig(t, "9")
	magic, berd := tp(t, fr, "magic", 64), tp(t, fr, "berd", 64)
	if magic < 1.2*berd {
		t.Errorf("MAGIC (%.1f) should beat BERD (%.1f) clearly with doubled selectivity", magic, berd)
	}
}

// Figure 10a: low-moderate, low correlation. MAGIC wins; BERD does not beat
// range (it pays the auxiliary overhead while QB still reaches all nodes).
func TestFig10aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fr := runFig(t, "10a")
	magic, berd, rng := tp(t, fr, "magic", 64), tp(t, fr, "berd", 64), tp(t, fr, "range", 64)
	if magic <= berd || magic <= rng {
		t.Errorf("MAGIC (%.1f) must beat BERD (%.1f) and range (%.1f)", magic, berd, rng)
	}
	if berd > 1.1*rng {
		t.Errorf("BERD (%.1f) should not beat range (%.1f) on low-moderate", berd, rng)
	}
}

// Figure 11a: moderate-low, low correlation. The paper: MAGIC wins, and
// BERD edges out range because QB (10 tuples) localizes to <=11 nodes
// instead of all 32. In our reconstruction BERD's auxiliary access offsets
// most of that edge, so BERD and range land within a few percent of each
// other (EXPERIMENTS.md records the deviation); the test pins MAGIC's win
// and BERD staying at least competitive with range.
func TestFig11aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fr := runFig(t, "11a")
	magic, berd, rng := tp(t, fr, "magic", 64), tp(t, fr, "berd", 64), tp(t, fr, "range", 64)
	if magic <= berd || magic <= rng {
		t.Errorf("MAGIC (%.1f) must beat BERD (%.1f) and range (%.1f)", magic, berd, rng)
	}
	if berd < 0.9*rng {
		t.Errorf("BERD (%.1f) should stay competitive with range (%.1f) on moderate-low", berd, rng)
	}
	// BERD's localization is visible in processors used even when the
	// throughput edge is eaten by the auxiliary access.
	if fr.MeanProcs("berd") >= fr.MeanProcs("range") {
		t.Errorf("BERD should employ fewer processors (%.1f) than range (%.1f)",
			fr.MeanProcs("berd"), fr.MeanProcs("range"))
	}
}

// Figure 12a: moderate-moderate, low correlation. MAGIC uses ~6.5
// processors against ~16.5 and wins clearly.
func TestFig12aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fr := runFig(t, "12a")
	magic, berd, rng := tp(t, fr, "magic", 64), tp(t, fr, "berd", 64), tp(t, fr, "range", 64)
	if magic < 1.2*berd || magic < 1.2*rng {
		t.Errorf("MAGIC (%.1f) should win clearly over BERD (%.1f) and range (%.1f)",
			magic, berd, rng)
	}
	if p := fr.MeanProcs("magic"); p > 12 {
		t.Errorf("MAGIC used %.2f processors/query, paper ~6.5", p)
	}
}

// Figure 12b: moderate-moderate, high correlation. MAGIC >= BERD at MPL 64
// (paper: ~25% ahead, no auxiliary search).
func TestFig12bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fr := runFig(t, "12b")
	magic, berd := tp(t, fr, "magic", 64), tp(t, fr, "berd", 64)
	if magic < berd {
		t.Errorf("MAGIC (%.1f) must not trail BERD (%.1f) at MPL 64", magic, berd)
	}
}

func TestFigureTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fig, _ := FigureByID("8a")
	opts := QuickScale()
	opts.MPLs = []int{1, 8}
	opts.MeasureQueries = 100
	opts.WarmupQueries = 20
	fr, err := Run(fig, opts)
	if err != nil {
		t.Fatal(err)
	}
	table := fr.Table().String()
	for _, want := range []string{"Figure 8a", "MPL", "magic", "berd", "range"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if len(fr.Notes) == 0 || !strings.Contains(fr.Notes[0], "directory") {
		t.Errorf("missing MAGIC construction note: %v", fr.Notes)
	}
	detail := fr.DetailTable().String()
	if !strings.Contains(detail, "procs/query") {
		t.Errorf("detail table malformed:\n%s", detail)
	}
	csv := fr.Table().CSV()
	if !strings.Contains(csv, "MPL,magic") {
		t.Errorf("CSV malformed: %s", csv)
	}
}

// The TID-fetch ablation: fetching BERD's second step by TID must cost more
// random I/O on the moderate mix than re-executing the predicate.
func TestBERDTIDFetchAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fig, _ := FigureByID("10a")
	fig.Strategies = []string{StrategyBERD}
	opts := QuickScale()
	opts.MPLs = []int{32}

	base, err := Run(fig, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfgTID := ConfigFor(opts)
	cfgTID.BERDFetchByTID = true
	opts.Config = &cfgTID
	tid, err := Run(fig, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := base.Throughput(StrategyBERD, 32)
	v, _ := tid.Throughput(StrategyBERD, 32)
	if v >= b {
		t.Errorf("TID fetching (%.1f q/s) should underperform predicate re-execution (%.1f q/s)", v, b)
	}
}

// Scale-out: MAGIC's localized execution should scale better than range's
// broadcast execution as processors grow.
func TestScaleSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sweep := DefaultScaleSweep()
	sweep.Processors = []int{8, 32}
	opts := QuickScale()
	opts.MeasureQueries = 250
	res, _, err := RunScaleSweep(sweep, opts, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sweep.Strategies {
		small, ok1 := res.Throughput(s, 8)
		big, ok2 := res.Throughput(s, 32)
		if !ok1 || !ok2 || small <= 0 || big <= small {
			t.Fatalf("%s did not scale: %.1f -> %.1f", s, small, big)
		}
	}
	magicSpeedup, _ := res.Speedup(StrategyMAGIC, 32)
	rangeSpeedup, _ := res.Speedup(StrategyRange, 32)
	if magicSpeedup <= rangeSpeedup {
		t.Errorf("MAGIC speedup %.2fx should exceed range %.2fx", magicSpeedup, rangeSpeedup)
	}
	table := res.Table().String()
	if !strings.Contains(table, "speedup") {
		t.Errorf("table malformed:\n%s", table)
	}
}

// Equation 1 validation: the simulator must reproduce the model's
// structure — response time falls like work/M in the work-dominated region
// and flattens into diminishing returns as the per-processor overhead
// grows. (The effective Cost of Participation in our execution layer is
// below the planning constant, so the empirical optimum sits above the
// planner's M and the bottom of the U is nearly flat; EXPERIMENTS.md
// discusses this.)
func TestResponseCurveValidatesEquation1(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := QuickScale()
	opts.Cardinality = 100000                                // full-size fragments keep the disks honest
	cls := workload.ModerateLow(opts.Cardinality).Classes[0] // QA-moderate: 30 tuples
	rc, err := RunResponseCurve(cls, []int{1, 2, 4, 8, 16, 32, 64}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Points) != 7 {
		t.Fatalf("points = %d", len(rc.Points))
	}
	at := func(m int) float64 {
		for _, p := range rc.Points {
			if p.Processors == m {
				return p.MeanResponseMS
			}
		}
		t.Fatalf("no point at %d", m)
		return 0
	}
	modeled := func(m int) float64 {
		for _, p := range rc.Points {
			if p.Processors == m {
				return p.ModeledMS
			}
		}
		return 0
	}
	// Work-dominated region: near-linear speedup, and model vs measurement
	// within 40%.
	if at(8) > at(1)/2.5 {
		t.Errorf("speedup too weak: RT(1)=%.1f RT(8)=%.1f", at(1), at(8))
	}
	for _, m := range []int{1, 2, 4, 8} {
		meas, mod := at(m), modeled(m)
		if rel := (meas - mod) / mod; rel < -0.4 || rel > 0.4 {
			t.Errorf("m=%d: measured %.1fms vs modeled %.1fms (%.0f%% off)",
				m, meas, mod, 100*rel)
		}
	}
	// Overhead region: doubling 32 -> 64 must yield almost nothing
	// (diminishing returns), unlike the work-dominated doublings.
	if gain := (at(32) - at(64)) / at(32); gain > 0.15 {
		t.Errorf("32->64 still gained %.0f%%; overhead term missing", gain*100)
	}
	if gain := (at(1) - at(2)) / at(1); gain < 0.3 {
		t.Errorf("1->2 gained only %.0f%%; work term missing", gain*100)
	}
}
