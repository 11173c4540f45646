package core

import "math"

// Rebalance is the Section 4 hill-climbing heuristic: repeatedly swap the
// ownership of the two slices (of any one dimension) whose exchange most
// improves the balance of per-processor tuple counts, until no swap
// improves it. The paper states its climber narrows the gap between the
// heaviest and lightest processors; a literal max/min-pair objective can
// oscillate (a swap helping one extreme pair re-skews another), so we score
// swaps by the sum-of-squares potential sum(load^2), which strictly
// decreases on every accepted swap and therefore converges to the same kind
// of local optimum monotonically. Swapping whole slices preserves the
// number of distinct processors in every slice of every dimension. owners
// is modified in place; the return value is the number of swaps applied.
//
// Each iteration applies the steepest descent: the pair with the most
// negative score, ties going to the first in (dimension, i, j) order.
// Swapping slices i and j moves δ_q tuples onto processor q, so the score
// is Σ_q (l_q+δ_q)² − l_q² = 2·dot + s2 with dot = Σ_q l_q·δ_q and
// s2 = Σ_q δ_q². Rather than rescanning every pair each iteration (about
// Σ_d dims_d · cells / 2 cell visits), Rebalance keeps δ, dot and s2 per pair
// and, after swapping slices (d*, i*, j*), touches only what moved:
//
//   - pairs of d* that include i* or j* are recomputed, about 2·cells visits;
//   - every pair's dot absorbs the load change, |supp Δl| ≤ P terms each;
//   - pairs of each other dimension d see only the 2·cells/dims_d* cells of
//     the swapped slices change owner, dims_d−1 pairs per moved cell.
//
// The state costs P int32s per pair. A dimension keeps it only when its
// slices hold at least P cells (narrower slices are cheaper to rescan than
// to track, which covers 1-D directories) and the state fits pairStateBudget;
// other dimensions are rescanned every iteration as before. The swap
// sequence, and so owners and the swap count, is identical either way:
// scores are exact integers. The state is dropped when Rebalance returns.
func Rebalance(owners []int, dims []int, counts []int, p, maxIters int) int {
	if len(owners) != len(counts) {
		panic("core: owners/counts length mismatch")
	}
	if maxIters <= 0 {
		return 0
	}
	r := newRebalancer(owners, dims, counts, p)
	swaps := 0
	for ; swaps < maxIters; swaps++ {
		d, i, j, ok := r.steepest()
		if !ok {
			break // no swap improves the balance: local optimum
		}
		r.swap(d, i, j)
	}
	return swaps
}

// pairStateBudget caps the int32 δ entries Rebalance keeps across all
// dimensions (128 MiB); a dimension that would exceed it is rescanned.
const pairStateBudget = 1 << 25

// rebalancer is Rebalance's working state.
type rebalancer struct {
	owners, dims, counts []int
	loads                []int
	// slices[d][i] lists the flat cells of slice i of dimension d in a
	// "rest" order shared by all slices of d, so position r in two slices
	// refers to the same rest-coordinate.
	slices  [][][]int
	strides []int        // row-major stride of each dimension
	tables  []*pairTable // per dimension; nil when it is rescanned
	// delta accumulates a per-processor load change; touched lists the
	// processors rescore reached. delta is all zero between uses.
	delta   []int64
	touched []int
}

// pairTable is the incremental score state of one dimension's slice pairs,
// indexed in (i, j) order by pairIndex.
type pairTable struct {
	n, p  int
	delta []int32 // pair k's δ at [k*p, (k+1)*p)
	dot   []int64 // Σ_q loads[q]·δ_q
	s2    []int64 // Σ_q δ_q²
}

// pairIndex numbers the pairs i < j of n slices in (i, j) order.
func pairIndex(n, i, j int) int { return i*n - i*(i+1)/2 + j - i - 1 }

func newRebalancer(owners, dims, counts []int, p int) *rebalancer {
	r := &rebalancer{
		owners: owners, dims: dims, counts: counts,
		loads:   ProcessorLoads(owners, counts, p),
		slices:  make([][][]int, len(dims)),
		strides: make([]int, len(dims)),
		tables:  make([]*pairTable, len(dims)),
		delta:   make([]int64, p),
	}
	for d := range dims {
		r.slices[d] = make([][]int, dims[d])
	}
	forEachCell(dims, func(flat int, coord []int) {
		for d := range dims {
			r.slices[d][coord[d]] = append(r.slices[d][coord[d]], flat)
		}
	})
	stride := 1
	for d := len(dims) - 1; d >= 0; d-- {
		r.strides[d] = stride
		stride *= dims[d]
	}

	// δ fits an int32 when the total tuple count does: |δ_q| never exceeds
	// the tuples in the two slices.
	var total int64
	for _, c := range counts {
		total += int64(max(c, -c))
	}
	budget := pairStateBudget
	for d, n := range dims {
		pairs := n * (n - 1) / 2
		if total > math.MaxInt32 || n < 2 || len(owners)/n < p || pairs*p > budget {
			continue
		}
		budget -= pairs * p
		t := &pairTable{n: n, p: p,
			delta: make([]int32, pairs*p),
			dot:   make([]int64, pairs),
			s2:    make([]int64, pairs),
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				r.fill(t, d, i, j)
			}
		}
		r.tables[d] = t
	}
	return r
}

// rescore computes the score of swapping slices i and j of dimension d
// from scratch.
func (r *rebalancer) rescore(d, i, j int) int64 {
	si, sj := r.slices[d][i], r.slices[d][j]
	r.touched = r.touched[:0]
	for x := range si {
		ci, cj := r.counts[si[x]], r.counts[sj[x]]
		if ci == cj {
			continue
		}
		oi, oj := r.owners[si[x]], r.owners[sj[x]]
		if r.delta[oi] == 0 {
			r.touched = append(r.touched, oi)
		}
		r.delta[oi] += int64(cj - ci)
		if r.delta[oj] == 0 {
			r.touched = append(r.touched, oj)
		}
		r.delta[oj] += int64(ci - cj)
	}
	var phi int64
	for _, q := range r.touched {
		l, dq := int64(r.loads[q]), r.delta[q]
		phi += (l+dq)*(l+dq) - l*l
		r.delta[q] = 0
	}
	return phi
}

// fill recomputes pair (i, j)'s state in t, dimension d's table.
func (r *rebalancer) fill(t *pairTable, d, i, j int) {
	k := pairIndex(t.n, i, j)
	row := t.delta[k*t.p : (k+1)*t.p]
	clear(row)
	si, sj := r.slices[d][i], r.slices[d][j]
	for x, fi := range si {
		fj := sj[x]
		diff := int32(r.counts[fj] - r.counts[fi])
		row[r.owners[fi]] += diff
		row[r.owners[fj]] -= diff
	}
	var dot, s2 int64
	for q, v := range row {
		dot += int64(r.loads[q]) * int64(v)
		s2 += int64(v) * int64(v)
	}
	t.dot[k], t.s2[k] = dot, s2
}

// add moves x tuples' worth of pair k's δ onto processor q, keeping dot
// and s2 consistent with the current loads.
func (t *pairTable) add(k, q int, x int64, load int) {
	at := k*t.p + q
	v := int64(t.delta[at])
	t.s2[k] += x * (2*v + x)
	t.dot[k] += int64(load) * x
	t.delta[at] = int32(v + x)
}

// steepest returns the pair with the most negative score, the first in
// (d, i, j) order on ties, or ok=false when no swap improves the balance.
func (r *rebalancer) steepest() (bestD, bestI, bestJ int, ok bool) {
	var bestPhi int64 // must be strictly negative to accept
	for d, n := range r.dims {
		t := r.tables[d]
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				var phi int64
				if t != nil {
					phi = 2*t.dot[k] + t.s2[k]
				} else {
					phi = r.rescore(d, i, j)
				}
				k++
				if phi < bestPhi {
					bestPhi, bestD, bestI, bestJ, ok = phi, d, i, j, true
				}
			}
		}
	}
	return bestD, bestI, bestJ, ok
}

// swap exchanges the owners of slices i and j of dimension d and brings
// every pair table up to date.
func (r *rebalancer) swap(d, i, j int) {
	si, sj := r.slices[d][i], r.slices[d][j]
	// Cells of the swapped slices change owner: move their contributions in
	// the other dimensions' pairs while the loads are still the old ones.
	for d2, t := range r.tables {
		if d2 != d && t != nil {
			r.moveSwapped(t, d2, d, i, j)
		}
	}

	// Apply the swap, recording the load change Δl in r.delta.
	for x := range si {
		oi, oj := r.owners[si[x]], r.owners[sj[x]]
		ci, cj := r.counts[si[x]], r.counts[sj[x]]
		r.loads[oi] += cj - ci
		r.loads[oj] += ci - cj
		r.delta[oi] += int64(cj - ci)
		r.delta[oj] += int64(ci - cj)
		r.owners[si[x]], r.owners[sj[x]] = oj, oi
	}
	var supp []int
	for q, dl := range r.delta {
		if dl != 0 {
			supp = append(supp, q)
		}
	}

	// Every pair's dot absorbs the new loads.
	for _, t := range r.tables {
		if t == nil {
			continue
		}
		for k := range t.dot {
			row := t.delta[k*t.p : (k+1)*t.p]
			var s int64
			for _, q := range supp {
				s += r.delta[q] * int64(row[q])
			}
			t.dot[k] += s
		}
	}
	clear(r.delta)

	// Pairs of d that include a swapped slice see new owners throughout.
	if t := r.tables[d]; t != nil {
		for x := 0; x < t.n; x++ {
			if x != i && x != j {
				r.fill(t, d, min(x, i), max(x, i))
				r.fill(t, d, min(x, j), max(x, j))
			}
		}
		r.fill(t, d, i, j)
	}
}

// moveSwapped updates dimension d's table t for slices i and j of
// dimension ds exchanging owners. In pair (a, b) of d, a cell contributes
// its count difference to its partner (the cell of the other slice at the
// same rest position) to its owner's δ; only the cells whose ds-coordinate
// is i or j change owner, and each such contribution moves from the old
// owner to the new one. Pairs are visited in table order.
func (r *rebalancer) moveSwapped(t *pairTable, d, ds, i, j int) {
	// moved[m] is the m-th such cell of slice 0 of d; cross[m] is the flat
	// offset to the cell it exchanges owners with.
	var moved, cross []int
	step := (j - i) * r.strides[ds]
	for _, f := range r.slices[d][0] {
		switch f / r.strides[ds] % r.dims[ds] {
		case i:
			moved, cross = append(moved, f), append(cross, step)
		case j:
			moved, cross = append(moved, f), append(cross, -step)
		}
	}
	s := r.strides[d]
	k := 0
	for a := 0; a < t.n; a++ {
		for b := a + 1; b < t.n; b++ {
			for m, f := range moved {
				fa, fb := f+a*s, f+b*s
				x := int64(r.counts[fb] - r.counts[fa])
				if x == 0 {
					continue
				}
				if from, to := r.owners[fa], r.owners[fa+cross[m]]; from != to {
					t.add(k, from, -x, r.loads[from])
					t.add(k, to, x, r.loads[to])
				}
				if from, to := r.owners[fb], r.owners[fb+cross[m]]; from != to {
					t.add(k, from, x, r.loads[from])
					t.add(k, to, -x, r.loads[to])
				}
			}
			k++
		}
	}
}
