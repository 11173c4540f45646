package core

import (
	"fmt"
	"sort"

	"repro/internal/storage"
)

// Predicate is a selection predicate: lo <= attr <= hi (equality when
// lo == hi). The workload of the paper consists entirely of such
// single-attribute range and exact-match selections.
type Predicate struct {
	Attr int
	Lo   int64
	Hi   int64
}

// Equality reports whether the predicate is an exact-match.
func (p Predicate) Equality() bool { return p.Lo == p.Hi }

func (p Predicate) String() string {
	if p.Equality() {
		return fmt.Sprintf("%s = %d", storage.AttrName(p.Attr), p.Lo)
	}
	return fmt.Sprintf("%d <= %s <= %d", p.Lo, storage.AttrName(p.Attr), p.Hi)
}

// Route is the optimizer's localization decision for a predicate.
type Route struct {
	// Participants are the processors the query is sent to directly. For a
	// BERD two-step query this is empty; the processors are discovered by
	// consulting the auxiliary relation at runtime.
	Participants []int
	// Aux, when non-empty, lists the processors holding the relevant
	// fragments of the auxiliary relation (BERD's first step).
	Aux []int
	// EntriesSearched is the number of declustering-directory entries the
	// optimizer examined (MAGIC's grid-directory cells; charged at CS per
	// entry on the scheduler node).
	EntriesSearched int
}

// Placement is a declustering strategy applied to a relation: it fixes each
// tuple's home processor at load time and localizes predicates at query
// time.
type Placement interface {
	// Name identifies the strategy ("range", "hash", "berd", "magic").
	Name() string
	// Processors reports the machine size the placement was built for.
	Processors() int
	// HomeOf returns the processor that stores the tuple.
	HomeOf(t storage.Tuple) int
	// Route localizes a predicate.
	Route(pred Predicate) Route
}

// allProcessors returns [0, 1, ..., p-1].
func allProcessors(p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i
	}
	return out
}

// QuantileCuts computes P-1 range boundaries over the attribute values of
// the relation so that each of the P buckets receives an (almost) equal
// number of tuples — how a database administrator would range-partition a
// relation with a known distribution. Bucket i holds values in
// [cuts[i-1], cuts[i]).
func QuantileCuts(rel *storage.Relation, attr, p int) []int64 {
	if p <= 0 {
		panic(fmt.Sprintf("core: cannot cut into %d buckets", p))
	}
	vals := make([]int64, rel.Cardinality())
	for i, t := range rel.Tuples {
		vals[i] = t.Attrs[attr]
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	cuts := make([]int64, p-1)
	n := len(vals)
	for i := 1; i < p; i++ {
		cuts[i-1] = vals[i*n/p]
	}
	return cuts
}

// bucketOf locates v among cuts: the index of the bucket holding v, where
// bucket i covers [cuts[i-1], cuts[i]).
func bucketOf(cuts []int64, v int64) int {
	return sort.Search(len(cuts), func(i int) bool { return cuts[i] > v })
}

// bucketRange returns the inclusive bucket index range overlapping [lo, hi].
func bucketRange(cuts []int64, lo, hi int64) (int, int) {
	return bucketOf(cuts, lo), bucketOf(cuts, hi)
}

func init() {
	RegisterStrategy("range", func(p StrategyParams) (Placement, error) {
		if err := needRelation("range", p); err != nil {
			return nil, err
		}
		return NewRangeForRelation(p.Relation, p.PrimaryAttr, p.Processors), nil
	})
	RegisterStrategy("hash", func(p StrategyParams) (Placement, error) {
		return NewHash(p.PrimaryAttr, p.Processors), nil
	})
}

// RangePlacement is the single-attribute range declustering strategy the
// paper uses as its baseline (the strategy of Gamma, Tandem, et al.).
type RangePlacement struct {
	attr int
	cuts []int64
	p    int
}

// NewRange builds a range placement on attr with the given cuts
// (len(cuts) == p-1, ascending).
func NewRange(attr int, cuts []int64, p int) *RangePlacement {
	if len(cuts) != p-1 {
		panic(fmt.Sprintf("core: range placement needs %d cuts, got %d", p-1, len(cuts)))
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i-1] > cuts[i] {
			panic("core: range cuts not ascending")
		}
	}
	return &RangePlacement{attr: attr, cuts: append([]int64(nil), cuts...), p: p}
}

// NewRangeForRelation builds a range placement with equal-count quantile
// cuts computed from the relation.
func NewRangeForRelation(rel *storage.Relation, attr, p int) *RangePlacement {
	return NewRange(attr, QuantileCuts(rel, attr, p), p)
}

// Name implements Placement.
func (r *RangePlacement) Name() string { return "range" }

// Processors implements Placement.
func (r *RangePlacement) Processors() int { return r.p }

// Attr reports the partitioning attribute.
func (r *RangePlacement) Attr() int { return r.attr }

// HomeOf implements Placement.
func (r *RangePlacement) HomeOf(t storage.Tuple) int {
	return bucketOf(r.cuts, t.Attrs[r.attr])
}

// Route implements Placement: predicates on the partitioning attribute go
// to the covering processors; everything else must visit all processors.
func (r *RangePlacement) Route(pred Predicate) Route {
	if pred.Attr != r.attr {
		return Route{Participants: allProcessors(r.p)}
	}
	from, to := bucketRange(r.cuts, pred.Lo, pred.Hi)
	out := make([]int, 0, to-from+1)
	for i := from; i <= to; i++ {
		out = append(out, i)
	}
	return Route{Participants: out}
}

// HashPlacement is single-attribute hash declustering: exact-match
// predicates on the partitioning attribute localize to one processor; range
// predicates (on any attribute) must visit all processors. Included as the
// introduction's other classic baseline and used by ablation benches.
type HashPlacement struct {
	attr int
	p    int
}

// NewHash builds a hash placement on attr over p processors.
func NewHash(attr, p int) *HashPlacement {
	if p <= 0 {
		panic("core: hash placement needs positive processor count")
	}
	return &HashPlacement{attr: attr, p: p}
}

// Name implements Placement.
func (h *HashPlacement) Name() string { return "hash" }

// Processors implements Placement.
func (h *HashPlacement) Processors() int { return h.p }

// HomeOf implements Placement.
func (h *HashPlacement) HomeOf(t storage.Tuple) int {
	return int(hash64(uint64(t.Attrs[h.attr])) % uint64(h.p))
}

// Route implements Placement.
func (h *HashPlacement) Route(pred Predicate) Route {
	if pred.Attr == h.attr && pred.Equality() {
		return Route{Participants: []int{int(hash64(uint64(pred.Lo)) % uint64(h.p))}}
	}
	return Route{Participants: allProcessors(h.p)}
}

// CoLocated reports whether an equi-join of build with probe on attr runs
// node-locally: when both inputs are hash-declustered on the join
// attribute over the same processors they share the randomizing function,
// so every tuple's join partner already lives on its own node and the
// split table degenerates to the identity.
func CoLocated(build, probe Placement, attr int) bool {
	hb, okB := build.(*HashPlacement)
	hp, okP := probe.(*HashPlacement)
	return okB && okP && hb.attr == attr && hp.attr == attr && hb.p == hp.p
}

// JoinBucket routes a join-attribute value through the same randomizing
// function hash declustering uses, so the execution layer's split table
// sends each tuple where a hash-declustered join partner already lives.
func JoinBucket(v int64, p int) int {
	return int(hash64(uint64(v)) % uint64(p))
}

// hash64 is SplitMix64; any well-mixing function works as the paper's
// "randomizing function".
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniqueSorted deduplicates and sorts a processor list in place.
func uniqueSorted(ps []int) []int {
	sort.Ints(ps)
	out := ps[:0]
	for i, p := range ps {
		if i == 0 || p != ps[i-1] {
			out = append(out, p)
		}
	}
	return out
}
