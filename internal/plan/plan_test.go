package plan

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

func pred(attr int, lo, hi int64) core.Predicate {
	return core.Predicate{Attr: attr, Lo: lo, Hi: hi}
}

// Golden forms: String and Explain are part of the API contract — CI gates
// and golden tests diff them, so changes here are breaking changes.
func TestGoldenString(t *testing.T) {
	join := NewJoin(storage.Unique1,
		NewIndexScan("wisc", pred(storage.Unique1, 5, 5), AccessNonClustered),
		NewScanWhere("trades", pred(storage.Unique2, 10, 20)))
	cases := []struct {
		node *Node
		want string
	}{
		{NewScan("wisc"), "Scan(wisc)"},
		{NewScanWhere("wisc", pred(storage.Unique2, 10, 20)),
			"Scan(wisc, 10 <= unique2 <= 20)"},
		{NewIndexScan("wisc", pred(storage.Unique1, 5, 5), AccessNonClustered),
			"IndexScan(wisc, unique1 = 5, non-clustered)"},
		{NewIndexScan("wisc", pred(storage.Unique2, 0, 9), AccessAuto),
			"IndexScan(wisc, 0 <= unique2 <= 9, auto)"},
		{NewFilter(pred(storage.Unique1, 1, 3), NewScan("wisc")),
			"Filter(1 <= unique1 <= 3)[Scan(wisc)]"},
		{NewAggregate(AggCount, 0, NewScan("wisc")),
			"Aggregate(count(*))[Scan(wisc)]"},
		{NewAggregate(AggSum, storage.Unique2, NewScan("wisc")),
			"Aggregate(sum(unique2))[Scan(wisc)]"},
		{join, "Join(unique1)[IndexScan(wisc, unique1 = 5, non-clustered), " +
			"Scan(trades, 10 <= unique2 <= 20)]"},
	}
	for _, c := range cases {
		if got := c.node.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestGoldenExplain(t *testing.T) {
	n := NewAggregate(AggCount, 0,
		NewFilter(pred(storage.Unique2, 10, 20),
			NewIndexScan("wisc", pred(storage.Unique1, 5, 5), AccessNonClustered)))
	want := strings.Join([]string{
		"Aggregate(count(*))",
		"└─ Filter(10 <= unique2 <= 20)",
		"   └─ IndexScan(wisc, unique1 = 5, non-clustered)",
		"",
	}, "\n")
	if got := n.Explain(); got != want {
		t.Errorf("Explain() =\n%s\nwant\n%s", got, want)
	}

	join := NewJoin(storage.Unique1,
		NewScan("build"),
		NewFilter(pred(storage.Unique1, 0, 99), NewScan("probe")))
	want = strings.Join([]string{
		"Join(unique1)",
		"├─ Scan(build)",
		"└─ Filter(0 <= unique1 <= 99)",
		"   └─ Scan(probe)",
		"",
	}, "\n")
	if got := join.Explain(); got != want {
		t.Errorf("join Explain() =\n%s\nwant\n%s", got, want)
	}
}

func TestExplainDeterministic(t *testing.T) {
	n := NewJoin(storage.Unique1, NewScan("a"),
		NewFilter(pred(storage.Unique2, 1, 2), NewScan("b")))
	first := n.Explain()
	for i := 0; i < 10; i++ {
		if got := n.Explain(); got != first {
			t.Fatalf("Explain() varied across calls")
		}
	}
}

func TestValidate(t *testing.T) {
	valid := []*Node{
		NewScan("wisc"),
		NewIndexScan("wisc", pred(storage.Unique1, 1, 1), AccessAuto),
		NewFilter(pred(storage.Unique1, 1, 1), NewScan("wisc")),
		NewJoin(storage.Unique1, NewScan("a"), NewScan("b")),
		NewAggregate(AggMax, storage.Unique2, NewScan("wisc")),
	}
	for _, n := range valid {
		if err := n.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", n, err)
		}
	}
	invalid := []*Node{
		nil,
		{Kind: KindScan},                         // no relation
		{Kind: KindIndexScan, Relation: "wisc"},  // no predicate
		{Kind: KindFilter, Inputs: []*Node{nil}}, // nil child
		{Kind: KindFilter, Pred: pred(0, 1, 1), HasPred: true}, // arity 0
		{Kind: KindJoin, Inputs: []*Node{NewScan("a")}},        // arity 1
		NewIndexScan("wisc", pred(storage.Unique1, 1, 1), AccessSeqScan),
		{Kind: Kind(99)},
	}
	for _, n := range invalid {
		if err := n.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", n)
		}
	}
}

// countVisitor tallies visited kinds to check Walk order and coverage.
type countVisitor struct{ order []Kind }

func (v *countVisitor) VisitScan(n *Node) error { v.order = append(v.order, KindScan); return nil }
func (v *countVisitor) VisitIndexScan(n *Node) error {
	v.order = append(v.order, KindIndexScan)
	return nil
}
func (v *countVisitor) VisitFilter(n *Node) error { v.order = append(v.order, KindFilter); return nil }
func (v *countVisitor) VisitJoin(n *Node) error   { v.order = append(v.order, KindJoin); return nil }
func (v *countVisitor) VisitAggregate(n *Node) error {
	v.order = append(v.order, KindAggregate)
	return nil
}

func TestWalkOrder(t *testing.T) {
	n := NewAggregate(AggCount, 0,
		NewJoin(storage.Unique1,
			NewIndexScan("a", pred(storage.Unique1, 1, 1), AccessAuto),
			NewFilter(pred(storage.Unique2, 1, 2), NewScan("b"))))
	v := &countVisitor{}
	if err := Walk(n, v); err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindIndexScan, KindScan, KindFilter, KindJoin, KindAggregate}
	if len(v.order) != len(want) {
		t.Fatalf("visited %v, want %v", v.order, want)
	}
	for i := range want {
		if v.order[i] != want[i] {
			t.Fatalf("visit order %v, want %v", v.order, want)
		}
	}
}

func TestCompileSelection(t *testing.T) {
	// Filter over IndexScan on the same attribute intersects.
	n := NewFilter(pred(storage.Unique1, 10, 50),
		NewIndexScan("wisc", pred(storage.Unique1, 20, 80), AccessNonClustered))
	sel, err := CompileSelection(n)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Relation != "wisc" || sel.Pred != pred(storage.Unique1, 20, 50) ||
		sel.Access != AccessNonClustered {
		t.Fatalf("compiled %+v", sel)
	}

	// Filter over a bare Scan adopts the filter's predicate.
	sel, err = CompileSelection(NewFilter(pred(storage.Unique2, 1, 9), NewScan("wisc")))
	if err != nil {
		t.Fatal(err)
	}
	if !sel.HasPred || sel.Pred != pred(storage.Unique2, 1, 9) || sel.Access != AccessSeqScan {
		t.Fatalf("compiled %+v", sel)
	}

	// A bare Scan compiles with no predicate.
	sel, err = CompileSelection(NewScan("wisc"))
	if err != nil {
		t.Fatal(err)
	}
	if sel.HasPred {
		t.Fatalf("bare scan compiled with predicate %+v", sel)
	}

	// Cross-attribute residual filters are valid plans but not executable.
	_, err = CompileSelection(NewFilter(pred(storage.Unique2, 1, 9),
		NewIndexScan("wisc", pred(storage.Unique1, 1, 9), AccessNonClustered)))
	if err == nil || !strings.Contains(err.Error(), "single-attribute") {
		t.Fatalf("cross-attribute filter err = %v", err)
	}

	// Non-selection roots are rejected.
	if _, err = CompileSelection(NewJoin(0, NewScan("a"), NewScan("b"))); err == nil {
		t.Fatal("join compiled as selection")
	}
}

func TestAggFnString(t *testing.T) {
	for fn, want := range map[AggFn]string{
		AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max", AggFn(9): "unknown",
	} {
		if fn.String() != want {
			t.Fatalf("AggFn(%d) = %q", fn, fn.String())
		}
	}
}
