package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// referenceDigests are the SHA-256 digests of the rendered tables of the
// full-scale workloads at their default seeds (see spec.render). A change
// that moves any simulated number changes the digest; regenerate with
// `go run . -child -workload <name> -print-text | sha256sum` only for a
// change that is meant to alter simulated output.
var referenceDigests = map[string]string{
	"quick-all":    "c9affb33bc4cc8e749f7cf2e67a0b98059077759c36093e94b5b66ca455821d6",
	"open-elastic": "74a9d3ac474a4cf9529fe43ff28d98ecae48fd2cbd4cf63b582a4cdebdee1218",
}

// paperReference is figure 11a's MPL-16 slice of a rendered closed
// campaign: the throughput row, the MAGIC directory note and the detail
// rows, each row split into fields.
type paperReference struct {
	summary []string
	note    string
	detail  [][]string
}

// extract11a pulls figure 11a's MPL-16 rows and MAGIC note out of rendered
// text in declusterbench's layout.
func extract11a(text string) (paperReference, error) {
	var ref paperReference
	section := ""
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Figure 11a: "):
			section = "summary"
			continue
		case line == "Figure 11a detail":
			section = "detail"
			continue
		case strings.HasPrefix(line, "Figure "):
			section = ""
			continue
		}
		f := strings.Fields(line)
		switch {
		case section == "summary" && len(f) > 0 && f[0] == "16":
			ref.summary = f
		case section == "summary" && strings.HasPrefix(strings.TrimSpace(line), "magic: directory"):
			ref.note = strings.TrimSpace(line)
		case section == "detail" && len(f) > 1 && f[1] == "16":
			ref.detail = append(ref.detail, f)
		}
	}
	if ref.summary == nil || ref.note == "" || len(ref.detail) == 0 {
		return ref, fmt.Errorf("figure 11a MPL-16 rows or MAGIC note missing")
	}
	return ref, nil
}

// checkPaperReference compares rendered paper-11a output with the
// committed paper_scale_results.txt: the MPL-16 throughput row and the
// MAGIC note must match exactly; each detail row must match on every
// column the committed table has (later revisions appended a disk-skew
// column the committed run predates).
func checkPaperReference(text, root string) error {
	raw, err := os.ReadFile(filepath.Join(root, "paper_scale_results.txt"))
	if err != nil {
		return fmt.Errorf("paper-11a reference: %w", err)
	}
	want, err := extract11a(string(raw))
	if err != nil {
		return fmt.Errorf("paper-11a reference: %w", err)
	}
	got, err := extract11a(text)
	if err != nil {
		return fmt.Errorf("paper-11a output: %w", err)
	}
	if !slices.Equal(got.summary, want.summary) {
		return fmt.Errorf("paper-11a MPL-16 row %q, want %q", strings.Join(got.summary, " "), strings.Join(want.summary, " "))
	}
	if got.note != want.note {
		return fmt.Errorf("paper-11a note %q, want %q", got.note, want.note)
	}
	if len(got.detail) != len(want.detail) {
		return fmt.Errorf("paper-11a: %d MPL-16 detail rows, want %d", len(got.detail), len(want.detail))
	}
	for i, w := range want.detail {
		g := got.detail[i]
		if len(g) < len(w) || !slices.Equal(g[:len(w)], w) {
			return fmt.Errorf("paper-11a detail row %q, want %q", strings.Join(g, " "), strings.Join(w, " "))
		}
	}
	return nil
}
