package gamma

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/rebalance"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// smallConfig returns a 8-processor machine config suitable for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.HW.NumProcessors = 8
	return cfg
}

func smallRelation(t *testing.T, corrWindow int) *storage.Relation {
	t.Helper()
	return storage.GenerateWisconsin(storage.GenSpec{
		Cardinality: 4000, CorrelationWindow: corrWindow, Seed: 11,
	})
}

func buildRange(t *testing.T, rel *storage.Relation, cfg Config) *Machine {
	t.Helper()
	pl := core.NewRangeForRelation(rel, storage.Unique1, cfg.HW.NumProcessors)
	m, err := Build(rel, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func buildBERD(t *testing.T, rel *storage.Relation, cfg Config) *Machine {
	t.Helper()
	pl := core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, cfg.HW.NumProcessors)
	m, err := Build(rel, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func buildMAGIC(t *testing.T, rel *storage.Relation, cfg Config, mix workload.Mix) *Machine {
	t.Helper()
	specs := workload.EstimateSpecs(mix, rel.Cardinality(), cfg.HW, cfg.Costs)
	pp := workload.PlanParamsFor(rel.Cardinality(), cfg.HW.NumProcessors, cfg.Costs)
	pl, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, specs, pp, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(rel, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// executeOne runs a single query on the machine and returns its result.
func executeOne(t *testing.T, m *Machine, pred core.Predicate, mix workload.Mix) exec.QueryResult {
	t.Helper()
	var res exec.QueryResult
	m.Eng.Spawn("probe", func(p *sim.Proc) {
		res = m.Host.Submit(p, plan.Select(m.Relation.Name, pred, mix.AccessChooser()(pred)))
		m.Eng.Stop()
	})
	if err := m.Eng.RunUntil(sim.Time(10 * 60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("query never completed")
	}
	return res
}

func TestSingleTupleQueryOnRange(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, smallConfig())
	mix := workload.LowLow(rel.Cardinality())
	res := executeOne(t, m, core.Predicate{Attr: storage.Unique1, Lo: 2000, Hi: 2000}, mix)
	if res.Tuples != 1 {
		t.Fatalf("retrieved %d tuples, want 1", res.Tuples)
	}
	if res.ProcessorsUsed != 1 {
		t.Fatalf("range equality used %d processors", res.ProcessorsUsed)
	}
	if res.ResponseMS() <= 0 || res.ResponseMS() > 1000 {
		t.Fatalf("implausible response time %gms", res.ResponseMS())
	}
}

func TestClusteredRangeOnRangeGoesEverywhere(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, smallConfig())
	mix := workload.LowLow(rel.Cardinality())
	// Predicate on B: range partitioning on A must ask all processors.
	res := executeOne(t, m, core.Predicate{Attr: storage.Unique2, Lo: 1000, Hi: 1009}, mix)
	if res.Tuples != 10 {
		t.Fatalf("retrieved %d tuples, want 10", res.Tuples)
	}
	if res.ProcessorsUsed != 8 {
		t.Fatalf("used %d processors, want all 8", res.ProcessorsUsed)
	}
}

func TestBERDSecondaryTwoStepExecution(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildBERD(t, rel, smallConfig())
	mix := workload.LowLow(rel.Cardinality())
	res := executeOne(t, m, core.Predicate{Attr: storage.Unique2, Lo: 1000, Hi: 1009}, mix)
	if res.Tuples != 10 {
		t.Fatalf("retrieved %d tuples, want 10", res.Tuples)
	}
	if res.AuxProcessors < 1 {
		t.Fatal("BERD never consulted the auxiliary relation")
	}
	// Uncorrelated: 10 tuples live on up to 10 + aux distinct processors,
	// but never all-plus: must be localized vs range's 8-everywhere when
	// the tuples cluster; here with 8 processors it may reach 8+aux.
	if res.ProcessorsUsed > 9 {
		t.Fatalf("BERD used %d processors", res.ProcessorsUsed)
	}
}

func TestBERDCorrelatedLocalizesToOneProcessor(t *testing.T) {
	rel := smallRelation(t, 1) // identical attributes
	m := buildBERD(t, rel, smallConfig())
	mix := workload.LowLow(rel.Cardinality())
	res := executeOne(t, m, core.Predicate{Attr: storage.Unique2, Lo: 1000, Hi: 1009}, mix)
	if res.Tuples != 10 {
		t.Fatalf("retrieved %d tuples", res.Tuples)
	}
	// Identical attributes: the 10 tuples share one home processor; with
	// the aux fragment the query touches at most 2 distinct processors.
	if res.ProcessorsUsed > 2 {
		t.Fatalf("correlated BERD used %d processors", res.ProcessorsUsed)
	}
}

func TestMAGICQueriesUseSubsets(t *testing.T) {
	rel := smallRelation(t, 0)
	mix := workload.LowLow(rel.Cardinality())
	m := buildMAGIC(t, rel, smallConfig(), mix)
	resA := executeOne(t, m, core.Predicate{Attr: storage.Unique1, Lo: 2000, Hi: 2000}, mix)
	if resA.Tuples != 1 {
		t.Fatalf("QA retrieved %d tuples", resA.Tuples)
	}
	if resA.ProcessorsUsed >= 8 || resA.AuxProcessors != 0 {
		t.Fatalf("MAGIC QA used %d processors (aux %d)", resA.ProcessorsUsed, resA.AuxProcessors)
	}
	// Fresh engine for a second independent probe.
	m.Reset()
	resB := executeOne(t, m, core.Predicate{Attr: storage.Unique2, Lo: 1000, Hi: 1009}, mix)
	if resB.Tuples != 10 {
		t.Fatalf("QB retrieved %d tuples", resB.Tuples)
	}
	if resB.ProcessorsUsed >= 8 {
		t.Fatalf("MAGIC QB used %d processors", resB.ProcessorsUsed)
	}
}

// Every strategy must return exactly the same answer for the same query.
func TestAllStrategiesAgreeOnResults(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := smallConfig()
	mix := workload.LowLow(rel.Cardinality())
	machines := []*Machine{
		buildRange(t, rel, cfg),
		buildBERD(t, rel, cfg),
		buildMAGIC(t, rel, cfg, mix),
	}
	preds := []core.Predicate{
		{Attr: storage.Unique1, Lo: 123, Hi: 123},
		{Attr: storage.Unique1, Lo: 1000, Hi: 1029},
		{Attr: storage.Unique2, Lo: 3000, Hi: 3299},
		{Attr: storage.Unique2, Lo: 3999, Hi: 3999},
	}
	for _, pred := range preds {
		want := 0
		for _, tup := range rel.Tuples {
			v := tup.Attrs[pred.Attr]
			if v >= pred.Lo && v <= pred.Hi {
				want++
			}
		}
		for _, m := range machines {
			m.Reset()
			res := executeOne(t, m, pred, mix)
			if res.Tuples != want {
				t.Fatalf("%s on %v: got %d tuples, want %d",
					m.Placement.Name(), pred, res.Tuples, want)
			}
		}
	}
}

func TestRunProducesThroughput(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, smallConfig())
	mix := workload.LowLow(rel.Cardinality())
	res, err := m.Run(mix, RunSpec{MPL: 4, WarmupQueries: 20, MeasureQueries: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputQPS <= 0 {
		t.Fatalf("throughput = %g", res.ThroughputQPS)
	}
	if res.Completed != 100 {
		t.Fatalf("measured %d queries", res.Completed)
	}
	if res.MeanResponseMS <= 0 {
		t.Fatalf("response = %g", res.MeanResponseMS)
	}
	if res.MeanProcsUsed < 1 {
		t.Fatalf("procs/query = %g", res.MeanProcsUsed)
	}
	if res.DiskUtilization <= 0 || res.DiskUtilization > 1 {
		t.Fatalf("disk utilization = %g", res.DiskUtilization)
	}
}

func TestRunDeterministic(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, smallConfig())
	mix := workload.LowLow(rel.Cardinality())
	spec := RunSpec{MPL: 4, WarmupQueries: 10, MeasureQueries: 50}
	a, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.ThroughputQPS != b.ThroughputQPS || a.MeanResponseMS != b.MeanResponseMS {
		t.Fatalf("replays differ: %v vs %v", a, b)
	}
}

func TestRunThroughputRisesWithMPL(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, smallConfig())
	mix := workload.LowLow(rel.Cardinality())
	one, err := m.Run(mix, RunSpec{MPL: 1, WarmupQueries: 10, MeasureQueries: 80})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := m.Run(mix, RunSpec{MPL: 8, WarmupQueries: 10, MeasureQueries: 80})
	if err != nil {
		t.Fatal(err)
	}
	if eight.ThroughputQPS <= one.ThroughputQPS {
		t.Fatalf("MPL 8 throughput %.2f not above MPL 1 %.2f",
			eight.ThroughputQPS, one.ThroughputQPS)
	}
}

func TestRunSpecValidation(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, smallConfig())
	mix := workload.LowLow(rel.Cardinality())
	if _, err := m.Run(mix, RunSpec{MPL: 0, MeasureQueries: 10}); err == nil {
		t.Error("MPL 0 accepted")
	}
	if _, err := m.Run(mix, RunSpec{MPL: 1, MeasureQueries: 0}); err == nil {
		t.Error("zero measurement accepted")
	}
	if _, err := m.Run(mix, RunSpec{MPL: 1, WarmupQueries: -1, MeasureQueries: 1}); err == nil {
		t.Error("negative warmup accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := smallConfig()
	cfg.BufferPages = -1
	pl := core.NewRangeForRelation(rel, storage.Unique1, 8)
	if _, err := Build(rel, pl, cfg); err == nil {
		t.Error("negative buffer accepted")
	}
	bad := smallConfig()
	bad.HW.MIPS = 0
	if _, err := Build(rel, pl, bad); err == nil {
		t.Error("invalid hardware accepted")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.HW.NumProcessors != 32 {
		t.Fatalf("default processors = %d", cfg.HW.NumProcessors)
	}
	if cfg.ClusteredAttr != storage.Unique2 {
		t.Fatal("default clustered attribute must be unique2 (B)")
	}
	if len(cfg.NonClusteredAttrs) != 1 || cfg.NonClusteredAttrs[0] != storage.Unique1 {
		t.Fatal("default non-clustered attribute must be unique1 (A)")
	}
}

func TestRunPerClassStats(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, smallConfig())
	mix := workload.LowLow(rel.Cardinality())
	res, err := m.Run(mix, RunSpec{MPL: 8, WarmupQueries: 20, MeasureQueries: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerClass) != 2 {
		t.Fatalf("per-class stats for %d classes, want 2", len(res.PerClass))
	}
	total := 0
	for name, cs := range res.PerClass {
		if cs.Completed <= 0 || cs.MeanResponseMS <= 0 || cs.MeanProcsUsed < 1 {
			t.Fatalf("class %s has degenerate stats: %+v", name, cs)
		}
		total += cs.Completed
	}
	if total != res.Completed {
		t.Fatalf("per-class counts sum to %d, total %d", total, res.Completed)
	}
	// Under range partitioning on A, QA localizes to 1 processor while QB
	// visits all 8 — the per-class breakdown must show it.
	qa, qb := res.PerClass["QA-low"], res.PerClass["QB-low"]
	if qa.MeanProcsUsed > 1.5 {
		t.Fatalf("QA used %.2f processors under range-on-A", qa.MeanProcsUsed)
	}
	if qb.MeanProcsUsed < 7 {
		t.Fatalf("QB used %.2f processors, want ~8", qb.MeanProcsUsed)
	}
}

func TestCatalogRegistered(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildBERD(t, rel, smallConfig())
	info, ok := m.Catalog.Lookup(rel.Name)
	if !ok {
		t.Fatal("relation not in catalog")
	}
	if info.Strategy() != "berd" || info.Cardinality != rel.Cardinality() {
		t.Fatalf("catalog info wrong: %s %d", info.Strategy(), info.Cardinality)
	}
	tuples := 0
	aux := 0
	for _, ns := range info.Nodes {
		tuples += ns.Tuples
		aux += ns.AuxEntries
		if len(ns.Indexes) != 2 {
			t.Fatalf("node has %d indexes, want clustered B + non-clustered A", len(ns.Indexes))
		}
	}
	if tuples != rel.Cardinality() {
		t.Fatalf("catalog counts %d tuples", tuples)
	}
	if aux != rel.Cardinality() {
		t.Fatalf("catalog counts %d aux entries for BERD", aux)
	}
	if info.TotalPages() <= 0 {
		t.Fatal("no pages recorded")
	}
}

// Property: all five placements return identical result counts for random
// predicates — routing may differ, answers may not.
func TestStrategyAgreementProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rel := smallRelation(t, 0)
	cfg := smallConfig()
	mix := workload.LowLow(rel.Cardinality())
	specs := workload.EstimateSpecs(mix, rel.Cardinality(), cfg.HW, cfg.Costs)
	pp := workload.PlanParamsFor(rel.Cardinality(), cfg.HW.NumProcessors, cfg.Costs)
	magicPl, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, specs, pp, nil)
	if err != nil {
		t.Fatal(err)
	}
	placements := []core.Placement{
		magicPl,
		core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, 8),
		core.NewRangeForRelation(rel, storage.Unique1, 8),
		core.NewHash(storage.Unique1, 8),
		core.NewRoundRobin(8),
	}
	machines := make([]*Machine, len(placements))
	for i, pl := range placements {
		m, err := Build(rel, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	src := rng.NewSource("preds", 77)
	for trial := 0; trial < 12; trial++ {
		attr := storage.Unique1
		if trial%2 == 1 {
			attr = storage.Unique2
		}
		width := int64(src.IntRange(1, 40))
		lo := int64(src.Intn(rel.Cardinality() - int(width)))
		pred := core.Predicate{Attr: attr, Lo: lo, Hi: lo + width - 1}
		var counts []int
		for _, m := range machines {
			m.Reset()
			res := executeOne(t, m, pred, mix)
			counts = append(counts, res.Tuples)
		}
		for i := 1; i < len(counts); i++ {
			if counts[i] != counts[0] {
				t.Fatalf("pred %v: %s returned %d tuples, %s returned %d",
					pred, machines[i].Placement.Name(), counts[i],
					machines[0].Placement.Name(), counts[0])
			}
		}
		if counts[0] != int(width) {
			t.Fatalf("pred %v: got %d tuples, want %d", pred, counts[0], width)
		}
	}
}

func TestHashAndRoundRobinMachines(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := smallConfig()
	mix := workload.LowLow(rel.Cardinality())
	for _, pl := range []core.Placement{
		core.NewHash(storage.Unique1, 8),
		core.NewRoundRobin(8),
	} {
		m, err := Build(rel, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(mix, RunSpec{MPL: 4, WarmupQueries: 20, MeasureQueries: 100})
		if err != nil {
			t.Fatal(err)
		}
		if res.ThroughputQPS <= 0 {
			t.Fatalf("%s: throughput %g", pl.Name(), res.ThroughputQPS)
		}
	}
}

// A predicate on a non-indexed attribute falls back to sequential scans on
// every processor and still returns the exact answer.
func TestSeqScanFallback(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, smallConfig())
	mix := workload.LowLow(rel.Cardinality())
	pred := core.Predicate{Attr: storage.Ten, Lo: 4, Hi: 4}
	want := 0
	for _, tup := range rel.Tuples {
		if tup.Attrs[storage.Ten] == 4 {
			want++
		}
	}
	res := executeOne(t, m, pred, mix)
	if res.Tuples != want {
		t.Fatalf("seq scan found %d tuples, want %d", res.Tuples, want)
	}
	if res.ProcessorsUsed != 8 {
		t.Fatalf("non-indexed predicate used %d processors, want all", res.ProcessorsUsed)
	}
	// Scans should exploit sequential I/O: most reads were sequential.
	var seq, total int64
	for _, n := range m.Nodes {
		seq += n.Disk.SequentialHits()
		total += n.Disk.Reads()
	}
	if total == 0 || float64(seq)/float64(total) < 0.5 {
		t.Fatalf("scan reads not mostly sequential: %d/%d", seq, total)
	}
}

func TestSimulateLoad(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := smallConfig()
	mix := workload.LowLow(rel.Cardinality())
	results := []LoadResult{}
	for _, build := range []func() *Machine{
		func() *Machine { return buildRange(t, rel, cfg) },
		func() *Machine { return buildBERD(t, rel, cfg) },
		func() *Machine { return buildMAGIC(t, rel, cfg, mix) },
	} {
		m := build()
		res, err := m.SimulateLoad()
		if err != nil {
			t.Fatal(err)
		}
		if res.Elapsed <= 0 || res.PagesWritten <= 0 || res.PacketsShipped <= 0 {
			t.Fatalf("%s: degenerate load result %+v", res.Strategy, res)
		}
		results = append(results, res)
		// The machine must still run queries after a load simulation.
		run, err := m.Run(mix, RunSpec{MPL: 2, WarmupQueries: 5, MeasureQueries: 30})
		if err != nil {
			t.Fatal(err)
		}
		if run.ThroughputQPS <= 0 {
			t.Fatal("machine unusable after load simulation")
		}
	}
	// Range scans once; BERD and MAGIC scan twice, so their loads cost more.
	if results[0].ScanPasses != 1 || results[1].ScanPasses != 2 || results[2].ScanPasses != 2 {
		t.Fatalf("scan passes = %d/%d/%d", results[0].ScanPasses, results[1].ScanPasses, results[2].ScanPasses)
	}
	if results[1].Elapsed <= results[0].Elapsed {
		t.Fatalf("BERD load (%.2fs) should cost more than range (%.2fs)",
			results[1].Elapsed.Seconds(), results[0].Elapsed.Seconds())
	}
	// BERD writes the auxiliary pages on top of what range writes.
	if results[1].PagesWritten <= results[0].PagesWritten {
		t.Fatal("BERD should write more pages than range (auxiliary relations)")
	}
	table := LoadTable(results).String()
	if !strings.Contains(table, "berd") || !strings.Contains(table, "scan passes") {
		t.Fatalf("load table malformed:\n%s", table)
	}
}

// The load precedes every run, so a run's fault schedule — here a disk
// failing 5ms in, well inside the load — must not reach it: a chained
// machine with faults loads exactly like the same machine without them.
func TestSimulateLoadIgnoresRunFaults(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := smallConfig()
	cfg.ChainedReplicas = true
	want, err := buildBERD(t, rel, cfg).SimulateLoad()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fault.Spec{Events: []fault.Event{{At: 5 * sim.Millisecond, Kind: fault.DiskFail, Node: 0}}}
	m := buildBERD(t, rel, cfg)
	got, err := m.SimulateLoad()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("load with run faults %+v, without %+v", got, want)
	}
	if m.Injector == nil {
		t.Fatal("SimulateLoad left the machine without its fault injector for the next run")
	}
}

// Nor does the run's membership schedule: a join due mid-load and one due
// long after it leave the same load cost. (An armed controller waiting for
// a later join would keep the engine running to the simulation bound,
// which the load would report as its elapsed time.)
func TestSimulateLoadIgnoresElasticSchedule(t *testing.T) {
	rel := elasticRelation(t)
	var loads []LoadResult
	for _, at := range []sim.Duration{100 * sim.Millisecond, 10 * 3600 * sim.Second} {
		m := buildRange(t, rel, elasticConfig(rebalance.Event{At: at, Kind: rebalance.Join}))
		res, err := m.SimulateLoad()
		if err != nil {
			t.Fatal(err)
		}
		if m.Rebalancer == nil {
			t.Fatal("SimulateLoad left the machine without its rebalance controller for the next run")
		}
		loads = append(loads, res)
	}
	if loads[0] != loads[1] {
		t.Fatalf("load depends on the elastic schedule: %+v vs %+v", loads[0], loads[1])
	}
}

func TestMultiRelationMachineAndJoin(t *testing.T) {
	cfg := smallConfig()
	r := storage.GenerateWisconsin(storage.GenSpec{Name: "stock", Cardinality: 2000, Seed: 11})
	s := storage.GenerateWisconsin(storage.GenSpec{Name: "trades", Cardinality: 800, Seed: 12})
	stockPl, tradesPl := core.NewHash(storage.Unique1, 8), core.NewHash(storage.Unique1, 8)
	m, err := Build(r, stockPl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddRelation(s, tradesPl); err != nil {
		t.Fatal(err)
	}
	// Both relations registered in the catalog.
	if m.Catalog.Len() != 2 {
		t.Fatalf("catalog holds %d relations", m.Catalog.Len())
	}
	// A selection against the second relation by name.
	var sel exec.QueryResult
	mix := workload.LowLow(s.Cardinality())
	m.Eng.Spawn("probe", func(p *sim.Proc) {
		pred := core.Predicate{Attr: storage.Unique2, Lo: 100, Hi: 109}
		sel = m.Host.Submit(p, plan.Select("trades", pred, mix.AccessChooser()(pred)))
		m.Eng.Stop()
	})
	if err := m.Eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if sel.Tuples != 10 {
		t.Fatalf("selection on trades got %d tuples", sel.Tuples)
	}
	// An equi-join between them (hash-on-key: co-located).
	m.Reset()
	var jr exec.QueryResult
	m.Eng.Spawn("joiner", func(p *sim.Proc) {
		jr = m.Host.Submit(p, plan.NewJoin(storage.Unique1, plan.NewScan("trades"), plan.NewScan("stock")))
		m.Eng.Stop()
	})
	if err := m.Eng.RunUntil(sim.Time(10 * 60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	// unique1 values 0..799 of trades each match exactly one stock tuple.
	if jr.Tuples != 800 {
		t.Fatalf("join matches = %d, want 800", jr.Tuples)
	}
	if !core.CoLocated(tradesPl, stockPl, storage.Unique1) {
		t.Fatal("hash-on-key join should be co-located")
	}
}

func TestAddRelationValidation(t *testing.T) {
	cfg := smallConfig()
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, cfg)
	if err := m.AddRelation(rel, core.NewHash(storage.Unique1, 8)); err == nil {
		t.Error("duplicate relation name accepted")
	}
	other := storage.GenerateWisconsin(storage.GenSpec{Name: "other", Cardinality: 100, Seed: 3})
	if err := m.AddRelation(other, core.NewHash(storage.Unique1, 4)); err == nil {
		t.Error("mismatched processor count accepted")
	}
}

func TestRunNodeStatsAndSkew(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, smallConfig())
	mix := workload.LowLow(rel.Cardinality())
	res, err := m.Run(mix, RunSpec{MPL: 4, WarmupQueries: 20, MeasureQueries: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeStats) != 8 {
		t.Fatalf("NodeStats has %d entries, want 8", len(res.NodeStats))
	}
	var diskSum float64
	for i, u := range res.NodeStats {
		if u.Node != i {
			t.Errorf("NodeStats[%d].Node = %d", i, u.Node)
		}
		if u.DiskUtil < 0 || u.DiskUtil > 1 || u.CPUUtil < 0 || u.CPUUtil > 1 {
			t.Errorf("node %d utilization out of range: cpu %g disk %g", i, u.CPUUtil, u.DiskUtil)
		}
		diskSum += u.DiskUtil
	}
	if got := diskSum / 8; !almostEq(got, res.DiskUtilization, 1e-9) {
		t.Errorf("per-node disk mean %g != machine mean %g", got, res.DiskUtilization)
	}
	if res.DiskSkew < 1 || res.CPUSkew < 1 {
		t.Errorf("skew ratios below 1: disk %g cpu %g", res.DiskSkew, res.CPUSkew)
	}
	if res.Metrics != nil {
		t.Error("Metrics snapshot present without Config.Metrics")
	}
}

func TestRunMetricsSnapshot(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := smallConfig()
	cfg.Metrics = true
	m := buildRange(t, rel, cfg)
	mix := workload.LowLow(rel.Cardinality())
	spec := RunSpec{MPL: 4, WarmupQueries: 20, MeasureQueries: 100}
	res, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Config.Metrics on but no snapshot")
	}
	// Warm-up was discarded by Registry.Reset, so the completion counter
	// matches the measurement window exactly.
	if got := res.Metrics.Counters["query.completed"]; got != int64(res.Completed) {
		t.Errorf("query.completed = %d, want %d", got, res.Completed)
	}
	if h, ok := res.Metrics.Histograms["query.response_ms"]; !ok || h.N != int64(res.Completed) {
		t.Errorf("query.response_ms histogram = %+v", h)
	}
	if res.Metrics.Gauges["node0.disk.util"] != res.NodeStats[0].DiskUtil {
		t.Error("per-node gauge disagrees with NodeStats")
	}
	// Disk facilities register wait/service histograms.
	if h, ok := res.Metrics.Histograms["disk0.service_ms"]; !ok || h.N == 0 {
		t.Errorf("disk0.service_ms missing or empty: %+v", h)
	}

	// Metrics must be pure bookkeeping: identical simulation schedule, so
	// identical throughput to a metrics-off run of the same spec.
	plain := buildRange(t, rel, smallConfig())
	base, err := plain.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if base.ThroughputQPS != res.ThroughputQPS || base.MeanResponseMS != res.MeanResponseMS {
		t.Errorf("metrics changed the simulation: %g/%g vs %g/%g q/s",
			res.ThroughputQPS, res.MeanResponseMS, base.ThroughputQPS, base.MeanResponseMS)
	}
}

func almostEq(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}
