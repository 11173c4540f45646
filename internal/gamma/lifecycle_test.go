package gamma

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/rebalance"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// layoutCase is one machine shape whose storage is laid out once at Build
// and must serve every later run unchanged. transitions is the number of
// elastic transitions a run must cut over.
type layoutCase struct {
	name        string
	build       func(t *testing.T) *Machine
	transitions int
}

func layoutCases() []layoutCase {
	join := rebalance.Event{At: 100 * sim.Millisecond, Kind: rebalance.Join}
	decommission := rebalance.Event{At: 600 * sim.Millisecond, Kind: rebalance.Decommission, Node: 1}
	return []layoutCase{
		{"range", func(t *testing.T) *Machine {
			return buildRange(t, smallRelation(t, 0), smallConfig())
		}, 0},
		{"berd", func(t *testing.T) *Machine {
			return buildBERD(t, smallRelation(t, 0), smallConfig())
		}, 0},
		{"chained", func(t *testing.T) *Machine {
			cfg := smallConfig()
			cfg.ChainedReplicas = true
			return buildBERD(t, smallRelation(t, 0), cfg)
		}, 0},
		{"chained-faults", func(t *testing.T) *Machine {
			cfg := smallConfig()
			cfg.ChainedReplicas = true
			cfg.Faults = &fault.Spec{
				Events: []fault.Event{
					{At: 5 * sim.Millisecond, Kind: fault.DiskFail, Node: 0, Dur: 200 * sim.Millisecond},
					{At: 10 * sim.Millisecond, Kind: fault.NodeCrash, Node: 3, Dur: 100 * sim.Millisecond},
				},
				MTBF: 100 * sim.Millisecond,
			}
			return buildBERD(t, smallRelation(t, 0), cfg)
		}, 0},
		{"heat-telemetry", func(t *testing.T) *Machine {
			cfg := smallConfig()
			cfg.Telemetry = &TelemetrySpec{Window: 50 * sim.Millisecond}
			cfg.Heat = &HeatSpec{}
			return buildBERD(t, smallRelation(t, 0), cfg)
		}, 0},
		{"elastic-join", func(t *testing.T) *Machine {
			return buildRange(t, elasticRelation(t), elasticConfig(join))
		}, 1},
		{"elastic-join-decommission", func(t *testing.T) *Machine {
			return buildRange(t, elasticRelation(t), elasticConfig(join, decommission))
		}, 2},
		{"elastic-join-chained", func(t *testing.T) *Machine {
			cfg := elasticConfig(join)
			cfg.ChainedReplicas = true
			return buildRange(t, elasticRelation(t), cfg)
		}, 1},
	}
}

var (
	layoutRunSpec   = RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 400}
	layoutServeSpec = ServeSpec{
		Arrival:        serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: 200},
		MaxInService:   8,
		WarmupQueries:  5,
		MeasureQueries: 300,
		MaxSimTime:     20 * sim.Second,
	}
)

// Two consecutive runs on one machine agree exactly, closed-loop and open:
// each run rebuilds the engine around the storage Build laid out, and no
// run (elastic staging and cutover included) leaves anything behind that
// the next one would see.
func TestLayoutRerunsAgree(t *testing.T) {
	for _, c := range layoutCases() {
		t.Run(c.name+"/run", func(t *testing.T) {
			m := c.build(t)
			mix := workload.LowLow(m.Relation.Cardinality())
			a, err := m.Run(mix, layoutRunSpec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.Run(mix, layoutRunSpec)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("consecutive runs diverge:\n%+v\n%+v", a, b)
			}
			checkTransitions(t, a.Rebalance, c.transitions)
		})
		t.Run(c.name+"/serve", func(t *testing.T) {
			m := c.build(t)
			mix := workload.LowLow(m.Relation.Cardinality())
			a, err := m.RunServe(mix, layoutServeSpec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.RunServe(mix, layoutServeSpec)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("consecutive serving runs diverge:\n%+v\n%+v", a, b)
			}
			checkTransitions(t, a.Rebalance, c.transitions)
		})
	}
}

// checkTransitions fails unless the run cut over exactly want transitions.
func checkTransitions(t *testing.T, rep *rebalance.Report, want int) {
	t.Helper()
	got := 0
	if rep != nil {
		got = len(rep.Tasks)
	}
	if got != want {
		t.Fatalf("run cut over %d elastic transitions, want %d", got, want)
	}
}

// servedFragments records every node's primary and backup fragment of the
// machine's relation.
func servedFragments(m *Machine) [][2]*storage.Fragment {
	out := make([][2]*storage.Fragment, len(m.Nodes))
	for i, n := range m.Nodes {
		out[i] = [2]*storage.Fragment{n.Fragment(m.Relation.Name), n.BackupFragment(m.Relation.Name)}
	}
	return out
}

// Storage is laid out once per machine: the nodes every later run builds
// serve the very fragments Build laid out, not re-laid copies. (Elastic
// runs end on a new generation; the elastic test below covers their
// reruns.)
func TestLayoutBuiltOnce(t *testing.T) {
	static := map[string]bool{"range": true, "berd": true, "chained": true, "chained-faults": true,
		"heat-telemetry": true}
	for _, c := range layoutCases() {
		if !static[c.name] {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			m := c.build(t)
			built := servedFragments(m)
			if built[0][0] == nil || (m.Cfg.ChainedReplicas && built[0][1] == nil) {
				t.Fatal("node 0 serves no fragment after Build")
			}
			mix := workload.LowLow(m.Relation.Cardinality())
			steps := []struct {
				name string
				run  func() error
			}{
				{"Run", func() error { _, err := m.Run(mix, layoutRunSpec); return err }},
				{"RunServe", func() error { _, err := m.RunServe(mix, layoutServeSpec); return err }},
				{"SimulateLoad", func() error { _, err := m.SimulateLoad(); return err }},
			}
			for _, s := range steps {
				if err := s.run(); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				if got := servedFragments(m); !reflect.DeepEqual(got, built) {
					t.Fatalf("after %s the nodes serve different fragments than Build laid out", s.name)
				}
			}
		})
	}
}

// An elastic run stages and cuts over to a 9-slot generation; the next run
// starts again from the 8-slot layout Build made, on the same pages: the
// machine's allocators and relation entries are never written by staging.
func TestLayoutElasticRerunServesBuiltPlacement(t *testing.T) {
	rel := elasticRelation(t)
	m := buildRange(t, rel, elasticConfig(rebalance.Event{At: 100 * sim.Millisecond, Kind: rebalance.Join}))
	built := servedFragments(m)
	used := make([]int, len(m.allocs))
	for i, a := range m.allocs {
		used[i] = a.Used()
	}
	mix := workload.LowLow(rel.Cardinality())
	first, err := m.Run(mix, layoutRunSpec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Rebalancer.Members()); n != 9 {
		t.Fatalf("elastic run ended with %d members, want 9 after the join", n)
	}
	if reflect.DeepEqual(servedFragments(m), built) {
		t.Fatal("the join cut over to no new fragments")
	}

	m.Reset()
	if got := servedFragments(m); !reflect.DeepEqual(got, built) {
		t.Fatal("after an elastic run, a reset machine does not serve the built fragments")
	}
	if m.Nodes[8].Fragment(rel.Name) != nil {
		t.Fatal("the standby node holds a fragment before any join")
	}
	for i, a := range m.allocs {
		if a.Used() != used[i] {
			t.Fatalf("node %d allocator moved from %d to %d pages: staging wrote the built layout", i, used[i], a.Used())
		}
	}
	if pl := m.relations[0].placement; pl != m.Placement || pl.Processors() != 8 {
		t.Fatalf("relation placement changed to %d processors: cutover wrote the built layout", pl.Processors())
	}

	second, err := m.Run(mix, layoutRunSpec)
	if err != nil {
		t.Fatalf("rerun after an elastic run: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("rerun diverges from the first elastic run:\n%+v\n%+v", first, second)
	}
}
