package exec

import (
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

// migrateRig is a three-node machine whose two-slot relation starts on
// nodes {0, 1} (identity topology) with a staged next generation placing
// slot 0 on node 1 and slot 1 on node 2 — the smallest layout where a
// cutover makes every slot's physical home differ from its slot number.
type migrateRig struct {
	eng   *sim.Engine
	nodes []*Node
	host  *Host
	rel   *storage.Relation
	heat  *obs.HeatMap
}

func newMigrateRig(t *testing.T) *migrateRig {
	t.Helper()
	eng := sim.New()
	params := hw.DefaultParams()
	params.NumProcessors = 3
	costs := DefaultCosts()
	streams := rng.NewFactory(5)

	cpus := make([]*hw.CPU, 4)
	for i := 0; i < 3; i++ {
		cpus[i] = hw.NewCPU(eng, "cpu", params)
	}
	net := hw.NewNetwork(eng, params, cpus)

	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	placement := core.NewRangeForRelation(rel, storage.Unique1, 2)
	layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}
	r := &migrateRig{eng: eng, rel: rel, heat: obs.NewHeatMap()}

	bySlot := make([][]storage.Tuple, 2)
	for _, tup := range rel.Tuples {
		h := placement.HomeOf(tup)
		bySlot[h] = append(bySlot[h], tup)
	}
	allocs := make([]*storage.Allocator, 3)
	for i := 0; i < 3; i++ {
		disk := hw.NewDisk(eng, "disk", params, cpus[i], streams.Stream("lat"))
		pool := buffer.NewPool(eng, "buf", 16, disk)
		n := NewNode(eng, i, params, costs, net, cpus[i], disk, pool)
		allocs[i] = storage.NewAllocator(10000)
		r.nodes = append(r.nodes, n)
	}
	build := func(slot, phys int) *storage.Fragment {
		frag := storage.BuildFragment(slot, bySlot[slot], storage.Unique2, layout, allocs[phys])
		frag.AddIndex(storage.Unique2, allocs[phys])
		frag.AddIndex(storage.Unique1, allocs[phys])
		return frag
	}
	attachHeat := func(phys int) {
		fh := r.heat.Frag(rel.Name, phys, obs.FragPrimary)
		r.nodes[phys].AttachHeat(rel.Name, obs.FragPrimary, fh)
	}
	// Generation 0: slots 0 and 1 live on their own-numbered nodes.
	for slot := 0; slot < 2; slot++ {
		r.nodes[slot].AddFragment(rel.Name, build(slot, slot))
		attachHeat(slot)
	}
	// Staged generation 1: slot 0 -> node 1, slot 1 -> node 2.
	r.nodes[1].StageFragment(rel.Name, build(0, 1))
	r.nodes[2].StageFragment(rel.Name, build(1, 2))
	attachHeat(2)
	for _, n := range r.nodes {
		n.Start()
	}
	r.host = NewHost(eng, 3, params, net, costs)
	r.host.AddRelation(rel.Name, placement)
	r.host.Start()
	return r
}

// cutover installs generation 1 on every node and repoints the host.
func (r *migrateRig) cutover() {
	for _, n := range r.nodes {
		n.CutoverPlacement(1)
	}
	r.host.SetTopology([]int{1, 2}, 1)
}

func (r *migrateRig) execute(t *testing.T, pred core.Predicate) QueryResult {
	t.Helper()
	return r.submit(t, selectOf(r.rel.Name, pred))
}

func (r *migrateRig) submit(t *testing.T, n *plan.Node) QueryResult {
	t.Helper()
	var res QueryResult
	r.eng.Spawn("probe", func(p *sim.Proc) {
		res = r.host.Submit(p, n)
		r.eng.Stop()
	})
	if err := r.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	return res
}

// servedNodeOfSlot maps each ServedBy entry's placement slot to the
// physical node that answered it.
func servedNodeOfSlot(res QueryResult) map[int]int {
	m := make(map[int]int)
	for _, op := range res.ServedBy {
		m[op.Fragment] = op.Node
	}
	return m
}

// After a cutover to a non-identity topology, ServedBy must attribute
// each operator to the placement slot (what the plan explains) AND the
// physical node that actually served it (what the heat map charges) —
// and the two views must agree: heat lands on the new physical homes.
func TestServedByAndHeatAgreeAfterCutover(t *testing.T) {
	r := newMigrateRig(t)
	r.eng.Schedule(0, func() { r.cutover() })
	res := r.execute(t, bothNodes)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want 20", res.Tuples)
	}
	served := servedNodeOfSlot(res)
	if served[0] != 1 || served[1] != 2 {
		t.Fatalf("ServedBy slot->node = %v, want map[0:1 1:2] after cutover", served)
	}
	// Heat attribution agrees with ServedBy: the migrated-to nodes are
	// charged, the vacated node is not.
	if pages := r.heat.Frag(r.rel.Name, 0, obs.FragPrimary).Pages(); pages != 0 {
		t.Fatalf("node 0 charged %d pages after migrating its slot away", pages)
	}
	for _, phys := range []int{1, 2} {
		if pages := r.heat.Frag(r.rel.Name, phys, obs.FragPrimary).Pages(); pages == 0 {
			t.Fatalf("node %d served a slot but its heat accumulator is empty", phys)
		}
	}
}

// A query submitted before the cutover completes against the old
// generation (dual-read): its ServedBy still names the old physical
// homes, because that is where its operators ran.
func TestDualReadServesInFlightQueryAcrossCutover(t *testing.T) {
	r := newMigrateRig(t)
	// The cutover lands while the query's operators are on the wire.
	r.eng.Schedule(sim.Duration(100*sim.Microsecond), func() { r.cutover() })
	res := r.execute(t, bothNodes)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want 20 from the pre-cutover generation", res.Tuples)
	}
	served := servedNodeOfSlot(res)
	if served[0] != 0 || served[1] != 1 {
		t.Fatalf("ServedBy slot->node = %v, want map[0:0 1:1] for a pre-cutover query", served)
	}
}

// A query two generations behind cannot be served: the node rejects it
// with a typed error instead of answering from the wrong layout.
func TestDualReadRejectsTwoGenerationsBack(t *testing.T) {
	r := newMigrateRig(t)
	r.eng.Schedule(sim.Duration(100*sim.Microsecond), func() {
		r.cutover()
		// Immediately advance again: gen 2 keeps the same layout (slots
		// restaged in place) but retires gen 0 from the dual-read window.
		for _, n := range r.nodes {
			n.CutoverPlacement(2)
		}
		r.host.SetTopology([]int{1, 2}, 2)
	})
	res := r.execute(t, bothNodes)
	if res.Err == nil {
		t.Fatalf("epoch-0 query against gen-2 nodes: res = %+v, want an error", res)
	}
}

// A join submitted after a decommission-style cutover runs its scans and
// operators on the slots' new physical homes — node 0 holds nothing any
// more — and still finds every match.
func TestJoinAfterCutoverUsesNewTopology(t *testing.T) {
	r := newMigrateRig(t)
	r.eng.Schedule(0, func() { r.cutover() })
	res := r.submit(t, plan.NewJoin(storage.Unique1, plan.NewScan(r.rel.Name), plan.NewScan(r.rel.Name)))
	if want := naiveJoinCount(r.rel, r.rel, storage.Unique1, storage.Unique1, nil, nil); res.Tuples != want {
		t.Fatalf("join matches = %d (outcome %v, err %v), want %d", res.Tuples, res.Outcome, res.Err, want)
	}
	if served := servedNodeOfSlot(res); served[0] != 1 || served[1] != 2 {
		t.Fatalf("ServedBy slot->node = %v, want map[0:1 1:2] after cutover", served)
	}
}
