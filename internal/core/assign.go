package core

import (
	"fmt"
	"math"
)

// AssignOwners maps every cell of a grid directory to a processor
// (Section 3.4). It reconstructs the [Gha90] heuristic as a tiled
// mixed-radix ("latin") pattern:
//
// The processors are factored into per-dimension radices A_d with
// ∏ A_d = P, and cell coordinates map to owner
//
//	owner(c) = Σ_d (c_d mod A_d) · ∏_{d' < d} A_{d'}
//
// A query on attribute d fixes coordinate d and therefore meets exactly
// P / A_d distinct processors, so the radices are chosen to make P / A_d
// approximate the planned Mi of dimension d. Because the tile repeats
// across the directory, all P processors receive ⌈cells/P⌉±1 cells — both
// Section 3.4 goals at once. For K == 1 the assignment is round-robin
// (footnote 7 of the paper).
//
// dims are the directory dimensions (Ni), p the processor count, and mi the
// planned per-dimension processor counts.
func AssignOwners(dims []int, p int, mi []float64) []int {
	if len(dims) == 0 || p <= 0 {
		panic("core: AssignOwners needs dimensions and processors")
	}
	cells := 1
	for _, n := range dims {
		if n <= 0 {
			panic(fmt.Sprintf("core: bad directory dimensions %v", dims))
		}
		cells *= n
	}
	owners := make([]int, cells)
	if len(dims) == 1 {
		for i := range owners {
			owners[i] = i % p
		}
		return owners
	}
	if len(mi) != len(dims) {
		panic(fmt.Sprintf("core: %d Mi values for %d dimensions", len(mi), len(dims)))
	}
	radices := chooseRadices(len(dims), p, mi)
	coord := make([]int, len(dims))
	for flat := 0; flat < cells; flat++ {
		owner, stride := 0, 1
		for d := range dims {
			owner += (coord[d] % radices[d]) * stride
			stride *= radices[d]
		}
		owners[flat] = owner
		// Row-major increment (last dimension fastest), matching the grid
		// file's flat indexing.
		for d := len(dims) - 1; d >= 0; d-- {
			coord[d]++
			if coord[d] < dims[d] {
				break
			}
			coord[d] = 0
		}
	}
	return owners
}

// chooseRadices enumerates factorizations of p into k radices and picks the
// one whose per-dimension processor counts p/A_d best match mi (log-scale
// error, so 2x too many and 2x too few weigh equally).
func chooseRadices(k, p int, mi []float64) []int {
	target := make([]float64, k)
	for d := range mi {
		m := mi[d]
		if m < 1 {
			m = 1
		}
		if m > float64(p) {
			m = float64(p)
		}
		target[d] = m
	}
	best := make([]int, k)
	for i := range best {
		best[i] = 1
	}
	best[0] = p
	bestScore := math.Inf(1)
	cur := make([]int, k)
	var rec func(d, rem int)
	rec = func(d, rem int) {
		if d == k-1 {
			cur[d] = rem
			score := 0.0
			for i := 0; i < k; i++ {
				eff := float64(p) / float64(cur[i]) // processors a dim-i query meets
				score += math.Abs(math.Log(eff / target[i]))
			}
			if score < bestScore {
				bestScore = score
				copy(best, cur)
			}
			return
		}
		for a := 1; a <= rem; a++ {
			if rem%a == 0 {
				cur[d] = a
				rec(d+1, rem/a)
			}
		}
	}
	rec(0, p)
	return best
}

// SliceDistinct reports, for each slice (interval) of dimension d, how many
// distinct processors own cells in the slice — the quantity the paper's
// Section 3.4 constraint bounds below by Mi.
func SliceDistinct(owners []int, dims []int, d int) []int {
	out := make([]int, dims[d])
	seen := make([]map[int]bool, dims[d])
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	forEachCell(dims, func(flat int, coord []int) {
		seen[coord[d]][owners[flat]] = true
	})
	for i, s := range seen {
		out[i] = len(s)
	}
	return out
}

// NonEmptySliceDistinct is SliceDistinct restricted to cells that actually
// hold tuples — the processor count the optimizer really uses, since empty
// entries are pruned at routing time (Section 4).
func NonEmptySliceDistinct(owners []int, dims []int, counts []int, d int) []int {
	out := make([]int, dims[d])
	seen := make([]map[int]bool, dims[d])
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	forEachCell(dims, func(flat int, coord []int) {
		if counts[flat] > 0 {
			seen[coord[d]][owners[flat]] = true
		}
	})
	for i, s := range seen {
		out[i] = len(s)
	}
	return out
}

// forEachCell iterates the row-major cells of a directory.
func forEachCell(dims []int, fn func(flat int, coord []int)) {
	cells := 1
	for _, n := range dims {
		cells *= n
	}
	coord := make([]int, len(dims))
	for flat := 0; flat < cells; flat++ {
		fn(flat, coord)
		for d := len(dims) - 1; d >= 0; d-- {
			coord[d]++
			if coord[d] < dims[d] {
				break
			}
			coord[d] = 0
		}
	}
}

// ProcessorLoads sums per-cell tuple counts by owner.
func ProcessorLoads(owners, counts []int, p int) []int {
	loads := make([]int, p)
	for flat, o := range owners {
		loads[o] += counts[flat]
	}
	return loads
}

// LoadSpread summarizes an assignment's balance: the minimum, maximum and
// mean per-processor tuple counts.
func LoadSpread(owners, counts []int, p int) (min, max int, mean float64) {
	loads := ProcessorLoads(owners, counts, p)
	min, max = loads[0], loads[0]
	total := 0
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
		total += l
	}
	return min, max, float64(total) / float64(p)
}

// AssignOwnersBalanced is AssignOwners with skew awareness: within each
// dimension, slices are ranked by their tuple weight and dealt round-robin
// into the A_d radix classes, so heavy and light slices interleave across
// the tile instead of resonating with the grid file's dyadic interval
// widths. Per-slice distinct-processor counts are identical to
// AssignOwners (the rank map is just a per-dimension slice permutation,
// which the paper's own swap operation shows is distinctness-preserving).
// counts gives the tuple count of each flat cell; nil falls back to
// AssignOwners.
func AssignOwnersBalanced(dims []int, p int, mi []float64, counts []int) []int {
	if counts == nil || len(dims) == 1 {
		return AssignOwners(dims, p, mi)
	}
	if len(mi) != len(dims) {
		panic(fmt.Sprintf("core: %d Mi values for %d dimensions", len(mi), len(dims)))
	}
	radices := chooseRadices(len(dims), p, mi)
	// class[d][i] = radix class of slice i of dimension d.
	class := make([][]int, len(dims))
	for d := range dims {
		weights := make([]int, dims[d])
		forEachCell(dims, func(flat int, coord []int) {
			weights[coord[d]] += counts[flat]
		})
		order := make([]int, dims[d])
		for i := range order {
			order[i] = i
		}
		sortByWeightDesc(order, weights)
		class[d] = make([]int, dims[d])
		for rank, slice := range order {
			class[d][slice] = rank % radices[d]
		}
	}
	cells := 1
	for _, n := range dims {
		cells *= n
	}
	owners := make([]int, cells)
	forEachCell(dims, func(flat int, coord []int) {
		owner, stride := 0, 1
		for d := range dims {
			owner += class[d][coord[d]] * stride
			stride *= radices[d]
		}
		owners[flat] = owner
	})
	return owners
}

// sortByWeightDesc orders slice indices by descending weight, stable.
func sortByWeightDesc(order []int, weights []int) {
	// Insertion sort: dims are small (hundreds) and stability matters.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && weights[order[j]] > weights[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}
