package core

import (
	"testing"

	"repro/internal/storage"
)

func BenchmarkBuildMAGIC20k(b *testing.B) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 20000, Seed: 21})
	pp := PlanParams{CPms: 1.7, CSms: 0.003, Processors: 32, Cardinality: 20000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2},
			magicWorkload(), pp, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRebalanceDiagonal(b *testing.B) {
	const n = 64
	dims := []int{n, n}
	counts := make([]int, n*n)
	for i := 0; i < n; i++ {
		counts[i*n+i] = 25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owners := AssignOwners(dims, 32, []float64{5, 5})
		Rebalance(owners, dims, counts, 32, 100)
	}
}

func BenchmarkMAGICRoute(b *testing.B) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 20000, Seed: 21})
	pp := PlanParams{CPms: 1.7, CSms: 0.003, Processors: 32, Cardinality: 20000}
	m, err := BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, magicWorkload(), pp, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Route(Predicate{Attr: storage.Unique2, Lo: int64(i % 19000), Hi: int64(i%19000 + 9)})
	}
}

// skewed634x126 returns counts shaped like figure 11a's paper-scale
// directory: 634x126 cells holding ~100k tuples, most of them in a band
// around the diagonal (the relation's Unique1/Unique2 correlation) with a
// sparse uniform background, so many cells are empty and slice weights are
// uneven. The generator is a fixed LCG, so the counts are deterministic.
func skewed634x126() (dims, counts []int) {
	const n0, n1 = 634, 126
	dims = []int{n0, n1}
	counts = make([]int, n0*n1)
	state := uint64(11)
	next := func(k int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(k))
	}
	for t := 0; t < 100000; t++ {
		i := next(n0)
		j := i * n1 / n0
		if next(4) == 0 {
			j = next(n1) // background
		} else {
			j += next(9) - 4 // diagonal band
			j = min(max(j, 0), n1-1)
		}
		counts[i*n1+j]++
	}
	return dims, counts
}

func BenchmarkRebalance634x126(b *testing.B) {
	dims, counts := skewed634x126()
	mi := []float64{19.3, 3.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		owners := AssignOwnersBalanced(dims, 32, mi, counts)
		b.StartTimer()
		if swaps := Rebalance(owners, dims, counts, 32, 200); swaps == 0 {
			b.Fatal("no rebalance swaps on skewed counts")
		}
	}
}
