package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Archive is a JSON-serializable snapshot of a set of figure runs, so a
// full paper-scale run can be stored alongside the repository and later
// runs compared against it for regressions.
type Archive struct {
	// Label is free-form provenance (date, host, git revision).
	Label   string          `json:"label,omitempty"`
	Options Options         `json:"options"`
	Figures []FigureArchive `json:"figures"`
}

// FigureArchive is the serializable part of a FigureResult (the Figure's
// Mix function cannot round-trip; its identity does).
type FigureArchive struct {
	ID          string   `json:"id"`
	Title       string   `json:"title"`
	Correlation string   `json:"correlation"`
	Notes       []string `json:"notes,omitempty"`
	Points      []Point  `json:"points"`
}

// Archive converts a FigureResult into its serializable form.
func (fr FigureResult) Archive() FigureArchive {
	return FigureArchive{
		ID:          fr.Figure.ID,
		Title:       fr.Figure.Title,
		Correlation: fr.Figure.Correlation.String(),
		Notes:       fr.Notes,
		Points:      fr.Points,
	}
}

// WriteArchive serializes the archive as indented JSON.
func WriteArchive(w io.Writer, a Archive) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// ReadArchive parses an archive produced by WriteArchive.
func ReadArchive(r io.Reader) (Archive, error) {
	var a Archive
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return a, fmt.Errorf("experiments: reading archive: %w", err)
	}
	return a, nil
}

// throughputKey identifies one measured point across archives.
type throughputKey struct {
	Figure   string
	Strategy string
	MPL      int
}

func (k throughputKey) String() string {
	return fmt.Sprintf("fig %s / %s @ MPL %d", k.Figure, k.Strategy, k.MPL)
}

func archiveThroughputs(a Archive) map[throughputKey]float64 {
	out := make(map[throughputKey]float64)
	for _, f := range a.Figures {
		for _, p := range f.Points {
			out[throughputKey{f.ID, p.Strategy, p.MPL}] = p.Result.ThroughputQPS
		}
	}
	return out
}

// CompareArchives reports every point whose throughput moved by more than
// tolerance (a fraction, e.g. 0.05 for 5%) between the two archives, plus
// points present in only one of them. A tolerance of 0 (or below) demands
// exact equality. An empty result means no regressions.
func CompareArchives(baseline, current Archive, tolerance float64) []string {
	tolerance = math.Max(tolerance, 0)
	base := archiveThroughputs(baseline)
	cur := archiveThroughputs(current)
	keys := make([]throughputKey, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range cur {
		if _, ok := base[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Figure != b.Figure {
			return a.Figure < b.Figure
		}
		if a.Strategy != b.Strategy {
			return a.Strategy < b.Strategy
		}
		return a.MPL < b.MPL
	})

	var diffs []string
	for _, k := range keys {
		b, inBase := base[k]
		c, inCur := cur[k]
		switch {
		case !inBase:
			diffs = append(diffs, fmt.Sprintf("%s: new point (%.2f q/s)", k, c))
		case !inCur:
			diffs = append(diffs, fmt.Sprintf("%s: missing (was %.2f q/s)", k, b))
		case b == 0:
			if c != 0 {
				diffs = append(diffs, fmt.Sprintf("%s: 0 -> %.2f q/s", k, c))
			}
		default:
			if rel := math.Abs(c-b) / b; rel > tolerance {
				diffs = append(diffs, fmt.Sprintf("%s: %.2f -> %.2f q/s (%+.1f%%)",
					k, b, c, 100*(c-b)/b))
			}
		}
	}
	return diffs
}
