package core

// rebalanceReference is the original full-rescan steepest-descent loop,
// kept verbatim as the oracle the incremental Rebalance must match swap for
// swap: every iteration it rescores every slice pair of every dimension from
// scratch, O(Σ_d dims_d² · cells/dims_d) cell visits per swap.
func rebalanceReference(owners []int, dims []int, counts []int, p, maxIters int) int {
	if len(owners) != len(counts) {
		panic("core: owners/counts length mismatch")
	}
	loads := ProcessorLoads(owners, counts, p)

	// Per-dimension slice views: sliceCells[d][i] lists the flat indices of
	// slice i of dimension d, in a fixed "rest" order shared by all slices
	// of d so that position r in two slices refers to the same rest-coord.
	sliceCells := make([][][]int, len(dims))
	for d := range dims {
		sliceCells[d] = make([][]int, dims[d])
	}
	forEachCell(dims, func(flat int, coord []int) {
		for d := range dims {
			sliceCells[d][coord[d]] = append(sliceCells[d][coord[d]], flat)
		}
	})

	delta := make([]int64, p)
	var touched []int
	swaps := 0
	for iter := 0; iter < maxIters; iter++ {
		var bestPhi int64 // must be strictly negative to accept
		bestD, bestI, bestJ := -1, 0, 0
		for d := range dims {
			for i := 0; i < dims[d]; i++ {
				for j := i + 1; j < dims[d]; j++ {
					si, sj := sliceCells[d][i], sliceCells[d][j]
					touched = touched[:0]
					for r := range si {
						ci, cj := counts[si[r]], counts[sj[r]]
						if ci == cj {
							continue
						}
						oi, oj := owners[si[r]], owners[sj[r]]
						if delta[oi] == 0 {
							touched = append(touched, oi)
						}
						delta[oi] += int64(cj - ci)
						if delta[oj] == 0 {
							touched = append(touched, oj)
						}
						delta[oj] += int64(ci - cj)
					}
					var phi int64
					for _, q := range touched {
						l := int64(loads[q])
						phi += (l+delta[q])*(l+delta[q]) - l*l
						delta[q] = 0
					}
					if phi < bestPhi {
						bestPhi, bestD, bestI, bestJ = phi, d, i, j
					}
				}
			}
		}
		if bestD == -1 {
			break // no swap improves the balance: local optimum
		}
		si, sj := sliceCells[bestD][bestI], sliceCells[bestD][bestJ]
		for r := range si {
			oi, oj := owners[si[r]], owners[sj[r]]
			loads[oi] += counts[sj[r]] - counts[si[r]]
			loads[oj] += counts[si[r]] - counts[sj[r]]
			owners[si[r]], owners[sj[r]] = oj, oi
		}
		swaps++
	}
	return swaps
}
