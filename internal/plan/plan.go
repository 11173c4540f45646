// Package plan defines the declarative query-plan tree that the execution
// layer consumes: an explicit operator tree (Scan / IndexScan / Filter /
// Join / Aggregate) with builders, a visitor, structural validation, and a
// deterministic explain form. It replaces the ad-hoc predicate dispatch of
// the original Host.Execute API: a query is a value that can be inspected,
// rewritten (predicates pushed into scans, same-attribute filters
// intersected) and — crucially for shared scans — compared against other
// in-flight queries to detect overlapping work.
//
// The package sits below exec and depends only on core and storage, so both
// the execution layer and the workload/experiment layers can build and
// inspect plans without import cycles.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/storage"
)

// Access selects the access method a scan uses. The execution layer's
// AccessKind is an alias of this type: the plan layer owns the access-method
// vocabulary.
type Access int

// Access methods of the workload (Section 6) plus the fallback scan. The
// first four values predate the plan layer and are wire/trace-compatible
// with the old exec.AccessKind constants.
const (
	AccessClustered    Access = iota // clustered B+-tree range scan
	AccessNonClustered               // non-clustered B+-tree + tuple fetches
	AccessTIDFetch                   // direct fetch by TID (BERD step two)
	AccessSeqScan                    // full sequential scan (no usable index)
	// AccessAuto defers the choice to the executor's per-relation policy
	// (clustered when the predicate hits the clustered attribute, the
	// workload's chooser otherwise). It lets plan builders stay ignorant of
	// physical design.
	AccessAuto
)

func (k Access) String() string {
	switch k {
	case AccessClustered:
		return "clustered"
	case AccessNonClustered:
		return "non-clustered"
	case AccessTIDFetch:
		return "tid-fetch"
	case AccessSeqScan:
		return "seq-scan"
	case AccessAuto:
		return "auto"
	default:
		return "unknown"
	}
}

// AggFn selects the aggregate function of an Aggregate node.
type AggFn int

// Supported aggregates (AVG is SUM/COUNT at the coordinator).
const (
	AggCount AggFn = iota
	AggSum
	AggMin
	AggMax
)

func (k AggFn) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "unknown"
	}
}

// Kind discriminates plan-tree nodes.
type Kind int

// Node kinds.
const (
	KindScan      Kind = iota // leaf: read a relation (optionally pre-filtered)
	KindIndexScan             // leaf: index-driven selection on a relation
	KindFilter                // unary: restrict the input by a predicate
	KindJoin                  // binary: equi-join two inputs on an attribute
	KindAggregate             // unary: aggregate the input
)

func (k Kind) String() string {
	switch k {
	case KindScan:
		return "Scan"
	case KindIndexScan:
		return "IndexScan"
	case KindFilter:
		return "Filter"
	case KindJoin:
		return "Join"
	case KindAggregate:
		return "Aggregate"
	default:
		return "unknown"
	}
}

// Node is one node of a plan tree. Which fields are meaningful depends on
// Kind; Validate checks the structural rules. Nodes are plain values: build
// them with the New* constructors, share subtrees freely (the executor never
// mutates a plan), and compare or hash their String() form for plan-level
// caching.
type Node struct {
	Kind Kind

	// Relation names the scanned relation (Scan, IndexScan).
	Relation string
	// Pred is the node's predicate (IndexScan, Filter, and Scan when
	// HasPred is set — a predicate pushed into a sequential scan).
	Pred core.Predicate
	// HasPred distinguishes "no predicate" from the zero predicate, whose
	// Attr 0 names a real Wisconsin attribute.
	HasPred bool
	// Access is the scan's access method (IndexScan; AccessAuto defers the
	// choice to the executor).
	Access Access
	// Fn is the aggregate function (Aggregate).
	Fn AggFn
	// Attr is the equi-join attribute (Join) or the aggregated attribute
	// (Aggregate; ignored for AggCount).
	Attr int

	// Inputs are the node's children: none for leaves, one for
	// Filter/Aggregate, two (build, probe) for Join.
	Inputs []*Node
}

// NewScan builds a full-relation sequential scan.
func NewScan(relation string) *Node {
	return &Node{Kind: KindScan, Relation: relation, Access: AccessSeqScan}
}

// NewScanWhere builds a sequential scan with the predicate pushed down: the
// relation is read in full, tuples are qualified on the fly.
func NewScanWhere(relation string, pred core.Predicate) *Node {
	return &Node{Kind: KindScan, Relation: relation, Pred: pred, HasPred: true,
		Access: AccessSeqScan}
}

// NewIndexScan builds an index-driven selection. AccessAuto lets the
// executor pick the index for the predicate's attribute.
func NewIndexScan(relation string, pred core.Predicate, access Access) *Node {
	return &Node{Kind: KindIndexScan, Relation: relation, Pred: pred, HasPred: true,
		Access: access}
}

// NewFilter restricts the input by a predicate.
func NewFilter(pred core.Predicate, input *Node) *Node {
	return &Node{Kind: KindFilter, Pred: pred, HasPred: true, Inputs: []*Node{input}}
}

// NewJoin equi-joins build (left) and probe (right) on attr.
func NewJoin(attr int, build, probe *Node) *Node {
	return &Node{Kind: KindJoin, Attr: attr, Inputs: []*Node{build, probe}}
}

// NewAggregate aggregates the input with fn over attr (attr is ignored for
// AggCount).
func NewAggregate(fn AggFn, attr int, input *Node) *Node {
	return &Node{Kind: KindAggregate, Fn: fn, Attr: attr, Inputs: []*Node{input}}
}

// Select builds the workload's canonical single-relation selection: an
// IndexScan unless the access method is a sequential scan, in which case the
// predicate is pushed into a Scan leaf.
func Select(relation string, pred core.Predicate, access Access) *Node {
	if access == AccessSeqScan {
		return NewScanWhere(relation, pred)
	}
	return NewIndexScan(relation, pred, access)
}

// Visitor is the plan-tree visitor. Walk dispatches on node kind; returning
// a non-nil error stops the walk.
type Visitor interface {
	VisitScan(n *Node) error
	VisitIndexScan(n *Node) error
	VisitFilter(n *Node) error
	VisitJoin(n *Node) error
	VisitAggregate(n *Node) error
}

// Walk traverses the tree depth-first, children before their parent (inputs
// left to right), stopping at the first error.
func Walk(n *Node, v Visitor) error {
	if n == nil {
		return fmt.Errorf("plan: walk of nil node")
	}
	for _, in := range n.Inputs {
		if err := Walk(in, v); err != nil {
			return err
		}
	}
	switch n.Kind {
	case KindScan:
		return v.VisitScan(n)
	case KindIndexScan:
		return v.VisitIndexScan(n)
	case KindFilter:
		return v.VisitFilter(n)
	case KindJoin:
		return v.VisitJoin(n)
	case KindAggregate:
		return v.VisitAggregate(n)
	default:
		return fmt.Errorf("plan: walk of unknown node kind %d", int(n.Kind))
	}
}

// Validate checks the tree's structural rules: leaf/arity constraints,
// named relations on scans, predicates where required.
func (n *Node) Validate() error {
	if n == nil {
		return fmt.Errorf("plan: nil node")
	}
	for _, in := range n.Inputs {
		if err := in.Validate(); err != nil {
			return err
		}
	}
	arity := map[Kind]int{KindScan: 0, KindIndexScan: 0, KindFilter: 1,
		KindJoin: 2, KindAggregate: 1}
	want, known := arity[n.Kind]
	if !known {
		return fmt.Errorf("plan: unknown node kind %d", int(n.Kind))
	}
	if len(n.Inputs) != want {
		return fmt.Errorf("plan: %s node has %d inputs, want %d", n.Kind, len(n.Inputs), want)
	}
	switch n.Kind {
	case KindScan, KindIndexScan:
		if n.Relation == "" {
			return fmt.Errorf("plan: %s node names no relation", n.Kind)
		}
		if n.Kind == KindIndexScan && !n.HasPred {
			return fmt.Errorf("plan: IndexScan node has no predicate")
		}
		if n.Kind == KindIndexScan && n.Access == AccessSeqScan {
			return fmt.Errorf("plan: IndexScan node with seq-scan access; use Scan")
		}
	case KindFilter:
		if !n.HasPred {
			return fmt.Errorf("plan: Filter node has no predicate")
		}
	}
	return nil
}

// label renders one node's own line of the explain form.
func (n *Node) label() string {
	switch n.Kind {
	case KindScan:
		if n.HasPred {
			return fmt.Sprintf("Scan(%s, %s)", n.Relation, n.Pred)
		}
		return fmt.Sprintf("Scan(%s)", n.Relation)
	case KindIndexScan:
		return fmt.Sprintf("IndexScan(%s, %s, %s)", n.Relation, n.Pred, n.Access)
	case KindFilter:
		return fmt.Sprintf("Filter(%s)", n.Pred)
	case KindJoin:
		return fmt.Sprintf("Join(%s)", storage.AttrName(n.Attr))
	case KindAggregate:
		if n.Fn == AggCount {
			return "Aggregate(count(*))"
		}
		return fmt.Sprintf("Aggregate(%s(%s))", n.Fn, storage.AttrName(n.Attr))
	default:
		return fmt.Sprintf("Unknown(kind=%d)", int(n.Kind))
	}
}

// String renders the tree on one deterministic line, parents wrapping their
// children: Aggregate(count(*))[Filter(...)[Scan(wisc)]].
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	var b strings.Builder
	b.WriteString(n.label())
	if len(n.Inputs) > 0 {
		b.WriteByte('[')
		for i, in := range n.Inputs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(in.String())
		}
		b.WriteByte(']')
	}
	return b.String()
}

// Explain renders the tree as an indented multi-line listing, one node per
// line, children indented under their parent. The output is a pure function
// of the tree — byte-identical across runs and -parallel settings — so it is
// safe to diff in golden tests and CI gates.
func (n *Node) Explain() string {
	var b strings.Builder
	n.explain(&b, "", "")
	return b.String()
}

func (n *Node) explain(b *strings.Builder, prefix, childPrefix string) {
	b.WriteString(prefix)
	if n == nil {
		b.WriteString("<nil>\n")
		return
	}
	b.WriteString(n.label())
	b.WriteByte('\n')
	for i, in := range n.Inputs {
		last := i == len(n.Inputs)-1
		connector, indent := "├─ ", "│  "
		if last {
			connector, indent = "└─ ", "   "
		}
		in.explain(b, childPrefix+connector, childPrefix+indent)
	}
}
