package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// rebalanceCase is one randomized equivalence input.
type rebalanceCase struct {
	name   string
	dims   []int
	counts []int
	owners []int // initial assignment; never mutated
	p      int
}

// randomDims draws a k-dimensional directory small enough to rebalance
// thousands of times under the reference loop.
func randomDims(rng *rand.Rand, k int) []int {
	hi := map[int]int{1: 48, 2: 20, 3: 7}[k]
	dims := make([]int, k)
	for d := range dims {
		dims[d] = 2 + rng.IntN(hi-1)
	}
	return dims
}

// randomCounts fills a directory with one of the count shapes the
// rebalancer meets: tuples on the (scaled) diagonal, mostly-empty cells
// with a few heavy spikes, perfectly uniform cells, or independent noise.
func randomCounts(rng *rand.Rand, dims []int, shape string) []int {
	cells := 1
	for _, n := range dims {
		cells *= n
	}
	counts := make([]int, cells)
	forEachCell(dims, func(flat int, coord []int) {
		switch shape {
		case "diagonal":
			on := true
			for d := 1; d < len(dims); d++ {
				on = on && coord[d]*dims[0]/dims[d] == coord[0]
			}
			if on || rng.IntN(20) == 0 {
				counts[flat] = 1 + rng.IntN(30)
			}
		case "zero-heavy":
			if rng.IntN(8) == 0 {
				counts[flat] = 1 + rng.IntN(100)
			}
		case "uniform":
			counts[flat] = 10
		default:
			counts[flat] = rng.IntN(12)
		}
	})
	return counts
}

// initialOwners builds the starting assignment the way BuildMAGIC can:
// the tiled latin pattern, its skew-aware variant, or the round-robin
// ablation.
func initialOwners(rng *rand.Rand, dims, counts []int, p int, assign string) []int {
	mi := make([]float64, len(dims))
	for d := range mi {
		mi[d] = 1 + rng.Float64()*float64(p)
	}
	switch assign {
	case "latin":
		return AssignOwners(dims, p, mi)
	case "balanced":
		return AssignOwnersBalanced(dims, p, mi, counts)
	default:
		owners := make([]int, len(counts))
		for i := range owners {
			owners[i] = i % p
		}
		return owners
	}
}

func randomRebalanceCases(seed uint64, n int) []rebalanceCase {
	rng := rand.New(rand.NewPCG(seed, 7))
	shapes := []string{"diagonal", "zero-heavy", "uniform", "noise"}
	assigns := []string{"latin", "balanced", "round-robin"}
	procs := []int{2, 3, 4, 6, 8, 16}
	var cases []rebalanceCase
	for c := 0; c < n; c++ {
		k := 1 + c%3
		shape, assign := shapes[c/3%len(shapes)], assigns[c/12%len(assigns)]
		p := procs[rng.IntN(len(procs))]
		dims := randomDims(rng, k)
		counts := randomCounts(rng, dims, shape)
		cases = append(cases, rebalanceCase{
			name: fmt.Sprintf("%d/%dd-%v-%s-%s-p%d", c, k, dims, shape, assign, p),
			dims: dims, counts: counts, p: p,
			owners: initialOwners(rng, dims, counts, p, assign),
		})
	}
	return cases
}

// tiedCase forces score ties: round-robin owners on an 8x8 directory with
// p = 4 give every row the owner pattern c mod 4, and counts that depend
// only on (row, column mod 4) make column pairs (a, b) and (a+4, b) score
// identically, so the argmin must break ties in (d, i, j) order.
func tiedCase() rebalanceCase {
	dims := []int{8, 8}
	counts := make([]int, 64)
	owners := make([]int, 64)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			counts[r*8+c] = (r*7 + (c%4)*(c%4)*5) % 13
			owners[r*8+c] = (r*8 + c) % 4
		}
	}
	return rebalanceCase{name: "forced-ties", dims: dims, counts: counts, owners: owners, p: 4}
}

// checkRebalanceEquivalent runs Rebalance and the reference on copies of
// the same input and fails unless owners and swap counts agree.
func checkRebalanceEquivalent(t *testing.T, c rebalanceCase, maxIters int) {
	t.Helper()
	got, want := slices.Clone(c.owners), slices.Clone(c.owners)
	gs := Rebalance(got, c.dims, c.counts, c.p, maxIters)
	ws := rebalanceReference(want, c.dims, c.counts, c.p, maxIters)
	if gs != ws {
		t.Fatalf("%s maxIters=%d: %d swaps, reference %d", c.name, maxIters, gs, ws)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s maxIters=%d: owners differ from the reference after %d swaps",
			c.name, maxIters, gs)
	}
}

// TestRebalanceMatchesReference pins the incremental rebalancer to the
// original full-rescan loop: identical owners and swap counts on 1-D, 2-D
// and 3-D directories, every initial assignment, several count shapes, and
// iteration cut-offs of 1, 2 and the converged count.
func TestRebalanceMatchesReference(t *testing.T) {
	cases := append(randomRebalanceCases(1, 180), tiedCase())
	tracked, rescanned := 0, 0
	for _, c := range cases {
		for _, tab := range newRebalancer(slices.Clone(c.owners), c.dims, c.counts, c.p).tables {
			if tab != nil {
				tracked++
			} else {
				rescanned++
			}
		}
		converged := rebalanceReference(slices.Clone(c.owners), c.dims, c.counts, c.p, 1<<20)
		for _, maxIters := range []int{1, 2, converged, converged + 1} {
			checkRebalanceEquivalent(t, c, maxIters)
		}
	}
	// Both per-dimension strategies must have been exercised.
	if tracked == 0 || rescanned == 0 {
		t.Fatalf("cases kept pair state for %d dimensions and rescanned %d; want both", tracked, rescanned)
	}
}

// The tie premise: the first iteration's best score is shared by more than
// one pair, so TestRebalanceMatchesReference really exercises tie-breaking.
func TestRebalanceTiedCaseHasTies(t *testing.T) {
	c := tiedCase()
	r := newRebalancer(slices.Clone(c.owners), c.dims, c.counts, c.p)
	var best int64
	ties := 0
	for d, n := range c.dims {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				switch phi := r.rescore(d, i, j); {
				case phi < best:
					best, ties = phi, 1
				case phi == best && phi < 0:
					ties++
				}
			}
		}
	}
	if best >= 0 || ties < 2 {
		t.Fatalf("best score %d shared by %d pairs; want a negative score tied at least twice", best, ties)
	}
	if r.tables[0] == nil || r.tables[1] == nil {
		t.Fatal("tied case should keep pair state in both dimensions")
	}
}

// Counts whose total overflows int32 cannot be tracked in int32 pair
// state; Rebalance must rescan instead and still match the reference.
func TestRebalanceHugeCountsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	dims := []int{12, 10}
	counts := randomCounts(rng, dims, "zero-heavy")
	total := 0
	for _, c := range counts {
		total += c
	}
	// Just past int32, yet far enough below int64 that squared loads, and
	// so the scores, stay exact.
	scale := math.MaxInt32/total + 1
	for i := range counts {
		counts[i] *= scale
	}
	c := rebalanceCase{name: "huge", dims: dims, counts: counts, p: 4,
		owners: AssignOwners(dims, 4, []float64{2, 2})}
	for _, tab := range newRebalancer(slices.Clone(c.owners), dims, counts, 4).tables {
		if tab != nil {
			t.Fatal("int32-overflowing counts kept pair state")
		}
	}
	converged := rebalanceReference(slices.Clone(c.owners), dims, counts, 4, 1<<20)
	if converged == 0 {
		t.Fatal("test premise: no swaps on skewed counts")
	}
	for _, maxIters := range []int{1, 2, converged} {
		checkRebalanceEquivalent(t, c, maxIters)
	}
}

// The skewed paper-shaped benchmark input: the 2-D case the incremental
// state exists for. Its first five swaps are in dimensions 1, 1, 1, 0, 1,
// so the cut-off covers both tables updating each other; the reference
// loop costs a full rescan per swap, which keeps the cut-off short.
func TestRebalance634x126MatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reference loop rescans a 634x126 directory per swap")
	}
	dims, counts := skewed634x126()
	c := rebalanceCase{name: "634x126", dims: dims, counts: counts, p: 32,
		owners: AssignOwnersBalanced(dims, 32, []float64{19.3, 3.8}, counts)}
	checkRebalanceEquivalent(t, c, 5)
}
