package exec

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite the schedule goldens in testdata/")

// scheduleNodes is the golden rig's machine size: enough nodes that a
// range, a BERD two-step and a MAGIC grid route to different subsets.
const scheduleNodes = 4

// newScheduleRig builds a fault-free scheduleNodes-node machine for any
// placement: each node holds its fragment (clustered on Unique2, indexed
// on Unique2 and Unique1) and, for BERD, its auxiliary fragments.
func newScheduleRig(t *testing.T, rel *storage.Relation, pl core.Placement) (*sim.Engine, *Host) {
	t.Helper()
	eng := sim.New()
	params := hw.DefaultParams()
	params.NumProcessors = scheduleNodes
	costs := DefaultCosts()
	streams := rng.NewFactory(5)

	cpus := make([]*hw.CPU, scheduleNodes+1)
	for i := 0; i < scheduleNodes; i++ {
		cpus[i] = hw.NewCPU(eng, "cpu", params)
	}
	net := hw.NewNetwork(eng, params, cpus)
	layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}

	byHome := make([][]storage.Tuple, scheduleNodes)
	for _, tup := range rel.Tuples {
		h := pl.HomeOf(tup)
		byHome[h] = append(byHome[h], tup)
	}
	var aux map[int]map[int][]storage.AuxEntry
	if b, ok := pl.(*core.BERDPlacement); ok {
		aux = b.AuxAssignments(rel)
	}
	for i := 0; i < scheduleNodes; i++ {
		disk := hw.NewDisk(eng, "disk", params, cpus[i], streams.Stream("lat"))
		pool := buffer.NewPool(eng, "buf", 16, disk)
		n := NewNode(eng, i, params, costs, net, cpus[i], disk, pool)
		alloc := storage.NewAllocator(10000)
		frag := storage.BuildFragment(i, byHome[i], storage.Unique2, layout, alloc)
		frag.AddIndex(storage.Unique2, alloc)
		frag.AddIndex(storage.Unique1, alloc)
		n.AddFragment(rel.Name, frag)
		for attr, perProc := range aux {
			n.AddAux(rel.Name, attr, storage.BuildAux(i, perProc[i], layout, alloc))
		}
		n.Start()
	}
	h := NewHost(eng, scheduleNodes, params, net, costs)
	h.AddRelation(rel.Name, pl)
	h.Start()
	return eng, h
}

// goldenResult is the golden's view of a QueryResult: every field the
// scheduler decides, with the error flattened to its message.
type goldenResult struct {
	ID             int64
	Pred           core.Predicate
	Tuples         int
	ProcessorsUsed int
	AuxProcessors  int
	Submitted      sim.Time
	Completed      sim.Time
	ServedBy       []ServedOp
	Outcome        string
	Retries        int
	Err            string
}

// TestScheduleGolden pins the fault-free selection schedule: for each
// placement and host mode, a few concurrent selections run to completion
// and their full results plus the engine's complete trace stream must
// match testdata/ byte for byte. Regenerate with -update only for an
// intended schedule change.
func TestScheduleGolden(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 400, Seed: 9})
	rangeB := []core.Predicate{
		{Attr: storage.Unique2, Lo: 40, Hi: 79},
		{Attr: storage.Unique2, Lo: 60, Hi: 99},
		{Attr: storage.Unique2, Lo: 300, Hi: 309},
	}
	mixed := []core.Predicate{
		{Attr: storage.Unique1, Lo: 120, Hi: 120},
		{Attr: storage.Unique2, Lo: 200, Hi: 239},
		{Attr: storage.Unique1, Lo: 10, Hi: 29},
	}
	berd := func() core.Placement {
		return core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, scheduleNodes)
	}
	magic := func() core.Placement {
		specs := []core.QuerySpec{
			{Name: "QA", Attr: storage.Unique1, TuplesPerQuery: 1, Frequency: 0.5,
				CPUms: 6, DiskMS: 30, NetMS: 2},
			{Name: "QB", Attr: storage.Unique2, TuplesPerQuery: 10, Frequency: 0.5,
				CPUms: 10, DiskMS: 30, NetMS: 2},
		}
		pp := core.PlanParams{CPms: 1.7, CSms: 0.003, Processors: scheduleNodes, Cardinality: rel.Cardinality()}
		m, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, specs, pp, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rangeA := func() core.Placement { return core.NewRangeForRelation(rel, storage.Unique1, scheduleNodes) }

	cases := []struct {
		name  string
		pl    func() core.Placement
		preds []core.Predicate
		setup func(h *Host)
	}{
		{"range_clustered", rangeA, rangeB, nil},
		{"berd_two_step", berd, rangeB, nil},
		{"berd_tid_fetch", berd, rangeB, func(h *Host) { h.BERDFetchByTID = true }},
		{"magic", magic, mixed, nil},
		{"range_shared", rangeA, rangeB, func(h *Host) { h.EnableSharing(2 * sim.Millisecond) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, h := newScheduleRig(t, rel, tc.pl())
			if tc.setup != nil {
				tc.setup(h)
			}
			var spans bytes.Buffer
			sink := obs.NewJSONLSink(&spans)
			eng.SetSink(sink)
			results := make([]QueryResult, len(tc.preds))
			for i, pred := range tc.preds {
				i, pred := i, pred
				eng.Spawn("probe", func(p *sim.Proc) {
					results[i] = h.Submit(p, plan.Select(rel.Name, pred, chooser(pred)))
				})
			}
			if err := eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
				t.Fatal(err)
			}
			if err := sink.Err(); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			for _, r := range results {
				if r.Completed == 0 {
					t.Fatalf("query %d never completed", r.ID)
				}
				g := goldenResult{
					ID: r.ID, Pred: r.Pred, Tuples: r.Tuples,
					ProcessorsUsed: r.ProcessorsUsed, AuxProcessors: r.AuxProcessors,
					Submitted: r.Submitted, Completed: r.Completed, ServedBy: r.ServedBy,
					Outcome: r.Outcome.String(), Retries: r.Retries,
				}
				if r.Err != nil {
					g.Err = r.Err.Error()
				}
				line, err := json.Marshal(g)
				if err != nil {
					t.Fatal(err)
				}
				got.Write(line)
				got.WriteByte('\n')
			}
			got.WriteString("--- spans\n")
			got.Write(spans.Bytes())

			checkScheduleGolden(t, tc.name, got.Bytes())
		})
	}
}

// checkScheduleGolden compares got against testdata/schedule_<name>.golden
// (or rewrites it under -update).
func checkScheduleGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "schedule_"+name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("schedule drifted from %s:\ngot:\n%s", path, got)
	}
}

// planShapeResult is the plan-shape golden's view of a QueryResult: the
// answer and its timing, without attribution or spans (which the
// collector is free to refine).
type planShapeResult struct {
	ID             int64
	Tuples         int
	Value          int64
	ProcessorsUsed int
	Submitted      sim.Time
	Completed      sim.Time
}

// runPlanShapes submits every plan concurrently, runs the engine dry and
// renders each result plus the packets every network endpoint sent.
func runPlanShapes(t *testing.T, eng *sim.Engine, h *Host, plans []*plan.Node) []byte {
	t.Helper()
	results := make([]QueryResult, len(plans))
	for i, n := range plans {
		i, n := i, n
		eng.Spawn("probe", func(p *sim.Proc) { results[i] = h.Submit(p, n) })
	}
	if err := eng.RunUntil(sim.Time(10 * 60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, r := range results {
		if r.Completed == 0 {
			t.Fatalf("query %d never completed", r.ID)
		}
		line, err := json.Marshal(planShapeResult{
			ID: r.ID, Tuples: r.Tuples, Value: r.Value, ProcessorsUsed: r.ProcessorsUsed,
			Submitted: r.Submitted, Completed: r.Completed,
		})
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
	}
	got.WriteString("packets sent per endpoint:")
	for i := 0; i <= h.ID; i++ {
		fmt.Fprintf(&got, " %d", h.net.Sent(i))
	}
	got.WriteByte('\n')
	return got.Bytes()
}

// TestPlanShapeGolden pins the fault-free schedule of the two non-selection
// plan shapes: concurrent COUNT/SUM/MIN/MAX aggregates under range, MAGIC
// and BERD placements (BERD's predicates on its auxiliary attribute), and
// concurrent joins with and without input predicates, co-located and
// repartitioned. Regenerate with -update only for an intended change.
func TestPlanShapeGolden(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 400, Seed: 9})
	agg := func(fn plan.AggFn, attr int, pred core.Predicate) *plan.Node {
		return plan.NewAggregate(fn, attr, plan.Select(rel.Name, pred, chooser(pred)))
	}
	mixedAggs := []*plan.Node{
		agg(plan.AggCount, 0, core.Predicate{Attr: storage.Unique2, Lo: 40, Hi: 79}),
		agg(plan.AggSum, storage.Unique1, core.Predicate{Attr: storage.Unique1, Lo: 100, Hi: 149}),
		agg(plan.AggMin, storage.Unique2, core.Predicate{Attr: storage.Unique1, Lo: 10, Hi: 29}),
		agg(plan.AggMax, storage.Unique1, core.Predicate{Attr: storage.Unique2, Lo: 200, Hi: 239}),
	}
	secondaryAggs := []*plan.Node{
		agg(plan.AggCount, 0, core.Predicate{Attr: storage.Unique2, Lo: 40, Hi: 79}),
		agg(plan.AggSum, storage.Unique1, core.Predicate{Attr: storage.Unique2, Lo: 60, Hi: 99}),
		agg(plan.AggMin, storage.Unique1, core.Predicate{Attr: storage.Unique2, Lo: 300, Hi: 309}),
		agg(plan.AggMax, storage.Unique1, core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 399}),
	}
	magicSpecs := []core.QuerySpec{
		{Name: "QA", Attr: storage.Unique1, TuplesPerQuery: 1, Frequency: 0.5,
			CPUms: 6, DiskMS: 30, NetMS: 2},
		{Name: "QB", Attr: storage.Unique2, TuplesPerQuery: 10, Frequency: 0.5,
			CPUms: 10, DiskMS: 30, NetMS: 2},
	}
	magicParams := core.PlanParams{CPms: 1.7, CSms: 0.003, Processors: scheduleNodes, Cardinality: rel.Cardinality()}
	aggCases := []struct {
		name  string
		pl    func() core.Placement
		plans []*plan.Node
	}{
		{"agg_range", func() core.Placement {
			return core.NewRangeForRelation(rel, storage.Unique1, scheduleNodes)
		}, mixedAggs},
		{"agg_magic", func() core.Placement {
			m, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, magicSpecs, magicParams, nil)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, mixedAggs},
		{"agg_berd", func() core.Placement {
			return core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, scheduleNodes)
		}, secondaryAggs},
	}
	for _, tc := range aggCases {
		t.Run(tc.name, func(t *testing.T) {
			eng, h := newScheduleRig(t, rel, tc.pl())
			checkScheduleGolden(t, tc.name, runPlanShapes(t, eng, h, tc.plans))
		})
	}

	joins := []*plan.Node{
		plan.NewJoin(storage.Unique1, plan.NewScan("s"), plan.NewScan("r")),
		plan.NewJoin(storage.Unique1,
			plan.NewScanWhere("s", core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 59}),
			plan.NewFilter(core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 199}, plan.NewScan("r"))),
	}
	r := storage.GenerateWisconsin(storage.GenSpec{Name: "r", Cardinality: 300, Seed: 9})
	s := storage.GenerateWisconsin(storage.GenSpec{Name: "s", Cardinality: 120, Seed: 10})
	joinCases := []struct {
		name string
		rPl  core.Placement
		sPl  core.Placement
	}{
		{"join_colocated", core.NewHash(storage.Unique1, 4), core.NewHash(storage.Unique1, 4)},
		{"join_repartitioned", core.NewRangeForRelation(r, storage.Unique2, 4),
			core.NewRangeForRelation(s, storage.Unique2, 4)},
	}
	for _, tc := range joinCases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newJoinRig(t, 4, tc.rPl, tc.sPl)
			checkScheduleGolden(t, tc.name, runPlanShapes(t, rig.eng, rig.host, joins))
		})
	}
}
