package experiments

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var updatePlacementGolden = flag.Bool("update-placement", false,
	"rewrite testdata/magic_placement_quick.golden")

// magicPlacementLine renders one figure's MAGIC placement fingerprint: the
// directory shape, the rebalancing swap count, and an FNV-64a hash of
// Owners() with every owner encoded as a little-endian uint32.
func magicPlacementLine(figID string, m *core.MAGICPlacement) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, o := range m.Owners() {
		binary.LittleEndian.PutUint32(buf[:], uint32(o))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%s dims=%v swaps=%d owners=%016x",
		figID, m.Dims(), m.RebalanceSwaps(), h.Sum64())
}

// TestMAGICPlacementGoldenQuickScale pins MAGIC's end-to-end placement for
// every figure at quick scale and seed 1: directory shape, swap count and
// the exact cell -> processor map must match the committed golden. Any
// change to the grid file, the assignment or the rebalancer that moves a
// single cell fails here. Regenerate with
//
//	go test ./internal/experiments -run TestMAGICPlacementGoldenQuickScale -update-placement
//
// only when a placement change is intended.
func TestMAGICPlacementGoldenQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds nine quick-scale MAGIC placements")
	}
	opts := QuickScale()
	rels := relationCache{}
	var lines []string
	for _, fig := range Figures() {
		rel := rels.get(opts.Cardinality, fig.Correlation.window(opts.Cardinality), opts.Seed)
		pl, err := BuildPlacement(StrategyMAGIC, rel, fig.Mix(opts.Cardinality), opts)
		if err != nil {
			t.Fatalf("fig %s: %v", fig.ID, err)
		}
		lines = append(lines, magicPlacementLine(fig.ID, pl.(*core.MAGICPlacement)))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "magic_placement_quick.golden")
	if *updatePlacementGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-placement): %v", err)
	}
	if got != string(want) {
		t.Fatalf("MAGIC placements drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
