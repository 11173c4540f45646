// Command campaignbench is the repository's end-to-end benchmark: it
// regenerates a campaign through the public experiments entry points and
// reports where its wall clock and memory go.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash campaignbench/run.sh --workload quick-all --seed 1 --seconds 30 --trace 0
//
// Workloads (each on a 2-worker harness pool):
//
//	paper-11a     figure 11a at paper scale, MPL 16, seed 1: MAGIC placement
//	              on the 634x126 directory dominates; checked against
//	              paper_scale_results.txt
//	quick-all     all nine figures at quick scale, seed 1: ~104 machine
//	              builds and runs, the per-run machine leak accumulates
//	open-elastic  figure 8a under open Poisson load (λ=100, 4000 tuples,
//	              4 processors) with a join at 200ms and a decommission at
//	              900ms, seed 7: serving, copier I/O and placement rebuilds
//
// One invocation measures one workload for --seconds: it runs the campaign
// repeatedly, each time in a fresh child process (so peak RSS and retained
// heap belong to one campaign) and at its own seed (--seed, --seed+1000,
// ...: MAGIC's rebalance swap count, and with it most of paper-11a's time,
// varies with the generated relation), and reports the median of every
// metric over at least three children. --trace 0 reports the end-to-end
// metrics with tracing off; --trace 1 runs untraced and traced children in
// same-seed pairs and reports the per-layer metrics of the traced ones,
// whose spans are recorded around every layer call from this package's
// files (see trace.go) and written as JSON lines under -trace-dir. Every
// child's output is checked (see spec.check); a failed check makes the run
// exit 1. Failed jobs are counted in the result's attempted/failed fields
// (failed_frac in the report); a child whose check fails counts all its
// jobs as failed.
//
// The human-readable lines before the final JSON line print every metric
// with its unit and, for per-layer metrics, the end-to-end metric it should
// move (the table below).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// metricDef names one reported metric. report marks the per-layer metrics
// the final JSON line carries: those measured on every workload. The rest
// are zero on the workloads that never call their layer, and print only in
// the human-readable lines.
type metricDef struct {
	name, unit, moves string
	report            bool
}

// endToEnd are the host-time end-to-end metrics, measured with tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s", "", true},
	{"setup_s", "s", "", true},
	{"peak_rss_mb", "MB", "", true},
	{"retained_heap_mb", "MB", "", true},
}

// perLayer are the traced run's metrics and the end-to-end metric each
// should move ("-" for simulated or exact counts a host-only change keeps).
var perLayer = []metricDef{
	{"storage.gen_s", "s", "setup_s", true},
	{"core.place_s.magic", "s", "setup_s wall_s", true},
	{"core.place_s.berd", "s", "setup_s wall_s", true},
	{"core.place_s.range", "s", "setup_s wall_s", true},
	{"core.rebuild_s", "s", "wall_s", false},
	{"core.magic_swaps", "count", "-", true},
	{"core.magic_cells", "count", "-", true},
	{"gamma.build_s.p50", "s", "wall_s peak_rss_mb", true},
	{"gamma.build_s.p90", "s", "wall_s peak_rss_mb", true},
	{"gamma.build_s.sum", "s", "wall_s peak_rss_mb", true},
	{"gamma.build_s.n", "count", "-", true},
	{"gamma.run_s.p50", "s", "wall_s", true},
	{"gamma.run_s.p90", "s", "wall_s", true},
	{"gamma.run_s.sum", "s", "wall_s", true},
	{"gamma.run_s.n", "count", "-", true},
	{"gamma.host_us_per_query", "us", "wall_s", true},
	{"gamma.goroutines_left", "count", "retained_heap_mb peak_rss_mb", true},
	{"gamma.heap_left_mb", "MB", "retained_heap_mb peak_rss_mb", true},
	{"serve.run_s", "s", "wall_s", false},
	{"serve.host_us_per_arrival", "us", "wall_s", false},
	{"gamma.sim_s", "sim_s", "-", true},
	{"exec.disk_reads_per_query", "pages/query", "-", true},
	{"buffer.hit_rate", "frac", "-", true},
	{"rebalance.pages_moved", "pages", "-", true},
	{"rebalance.tasks", "count", "-", true},
	{"rebalance.ttr_ms", "sim_ms", "-", true},
	{"harness.pool_s", "s", "wall_s", true},
	{"harness.job_s.sum", "s", "wall_s", true},
	{"harness.busy_frac", "frac", "wall_s", true},
	{"harness.retries", "count", "failed_frac", true},
	{"harness.failed", "count", "failed_frac", true},
	{"experiments.report_s", "s", "wall_s", true},
	{"proc.cpu_s", "s", "wall_s", true},
	{"proc.gc_cpu_s", "s", "wall_s peak_rss_mb", true},
	{"proc.alloc_gb", "GB", "wall_s peak_rss_mb", true},
	{"self_s.experiments", "s", "wall_s", true},
	{"self_s.storage", "s", "setup_s", true},
	{"self_s.core", "s", "setup_s wall_s", true},
	{"self_s.harness", "s", "wall_s", true},
	{"self_s.gamma.build", "s", "wall_s", true},
	{"self_s.gamma.run", "s", "wall_s", true},
	{"trace.overhead_frac", "frac", "traced/untraced wall_s - 1", true},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload: paper-11a, quick-all or open-elastic")
		seed     = flag.Int64("seed", -1, "workload seed (default: the workload's own)")
		seconds  = flag.Int("seconds", 30, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "1 reports the traced per-layer metrics, 0 the end-to-end ones")
		root     = flag.String("root", ".", "repository root (holds paper_scale_results.txt)")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "where traced children write their spans")
		child    = flag.Bool("child", false, "run the campaign once in this process and print its result")
		traced   = flag.Bool("traced", false, "with -child: run the traced campaign")
		text     = flag.Bool("print-text", false, "with -child: print the rendered tables instead of the result")
		traceOut = flag.String("trace-out", "", "with -child -traced: span output file")
	)
	flag.Parse()
	if *seed < 0 {
		*seed = defaultSeeds[*name]
	}
	s, err := newSpec(*name, *seed, false)
	if err != nil {
		return fail(err)
	}
	if *child {
		res, out, err := runRep(s, *traced, *root, *traceOut)
		if err != nil {
			return fail(err)
		}
		if *text {
			fmt.Print(out)
			return 0
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return fail(err)
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	if *trace == 1 {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fail(err)
		}
	}
	sum, err := measure(s, time.Duration(*seconds)*time.Second, *trace == 1, *root, *traceDir)
	if err != nil {
		return fail(err)
	}
	sum.print(os.Stdout)
	if !sum.correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "campaignbench:", err)
	return 2
}

// childBudget bounds the whole invocation: children still running when it
// expires are killed and counted as failed.
const childBudget = 170 * time.Second

// minChildren is the fewest children an untraced invocation runs, so
// every end-to-end median (set-up time included) covers three campaigns.
const minChildren = 3

// summary aggregates one invocation's children.
type summary struct {
	spec       spec
	trace      bool
	reps       []repResult
	attempted  int
	failed     int
	correct    bool
	problems   []string
	metrics    map[string]float64 // medians over the reporting children
	e2e        map[string]float64 // untraced medians (trace mode: overhead base)
	seconds    time.Duration
	childTimes []float64
}

// seedStride separates the seeds of one invocation's children: child k
// (in trace mode, pair k) runs at seed + k*seedStride, so a run averages
// over several generated inputs and runs at different seeds share none.
const seedStride = 1000

// measure runs children until the measurement time is spent: at least
// minChildren (in trace mode one untraced/traced pair at the same seed),
// and no further child once the last child's duration would overrun it.
func measure(s spec, budget time.Duration, trace bool, root, traceDir string) (*summary, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childBudget)
	defer cancel()
	sum := &summary{spec: s, trace: trace, correct: true}
	least := minChildren
	if trace {
		least = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		traced, k := false, i
		if trace {
			traced, k = i%2 == 1, i/2
		}
		seed := s.Seed + int64(k)*seedStride
		args := []string{"-child", "-workload", s.Name, "-seed", strconv.FormatInt(seed, 10), "-root", root}
		if traced {
			out := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", s.Name, seed))
			args = append(args, "-traced", "-trace-out", out)
		}
		t0 := time.Now()
		res, err := runChild(ctx, self, args)
		d := time.Since(t0)
		sum.childTimes = append(sum.childTimes, d.Seconds())
		if err != nil {
			sum.attempted++
			sum.failed++
			sum.correct = false
			sum.problems = append(sum.problems, fmt.Sprintf("child %d (seed %d): %v", i, seed, err))
			break
		}
		sum.add(res)
		if el := time.Since(start); i+1 >= least && el+d > budget {
			break
		}
	}
	sum.seconds = time.Since(start)
	sum.aggregate()
	return sum, nil
}

// runChild runs one child and decodes the result it prints. The child's
// stderr passes through.
func runChild(ctx context.Context, self string, args []string) (repResult, error) {
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return repResult{}, err
	}
	var res repResult
	if err := json.NewDecoder(&out).Decode(&res); err != nil {
		return repResult{}, fmt.Errorf("decoding child result: %w", err)
	}
	return res, nil
}

// add counts one child. A child whose output check failed counts every
// one of its jobs as failed.
func (s *summary) add(r repResult) {
	s.reps = append(s.reps, r)
	s.attempted += r.Jobs
	if len(r.Problems) > 0 {
		s.failed += r.Jobs
		s.correct = false
		for _, p := range r.Problems {
			s.problems = append(s.problems, fmt.Sprintf("child %d: %s", len(s.reps)-1, p))
		}
	}
}

// aggregate takes per-metric medians: the end-to-end metrics over the
// untraced children, the per-layer metrics over the traced ones.
func (s *summary) aggregate() {
	pick := func(traced bool) map[string]float64 {
		vals := map[string][]float64{}
		for _, r := range s.reps {
			if r.Traced == traced {
				for k, v := range r.Metrics {
					vals[k] = append(vals[k], v)
				}
			}
		}
		out := map[string]float64{}
		for k, v := range vals {
			out[k] = median(v)
		}
		return out
	}
	s.e2e = pick(false)
	if !s.trace {
		s.metrics = s.e2e
		return
	}
	s.metrics = pick(true)
	// Tracing overhead compares each traced child with the untraced child
	// at its seed.
	untraced := map[int64]float64{}
	var overhead []float64
	for _, r := range s.reps {
		if !r.Traced {
			untraced[r.Seed] = r.Metrics["wall_s"]
		} else if base := untraced[r.Seed]; base > 0 {
			overhead = append(overhead, r.Metrics["wall_s"]/base-1)
		}
	}
	s.metrics["trace.overhead_frac"] = median(overhead)
}

// print writes the human-readable report and, last, the JSON result line.
func (s *summary) print(w io.Writer) {
	fmt.Fprintf(w, "campaignbench workload=%s seed=%d trace=%v children=%d measured=%.1fs workers=%d\n",
		s.spec.Name, s.spec.Seed, s.trace, len(s.reps), s.seconds.Seconds(), workers)
	if len(s.reps) > 0 {
		fmt.Fprintf(w, "host: %s\n", s.reps[0].Host)
	}
	for i, r := range s.reps {
		fmt.Fprintf(w, "child %d seed=%d traced=%v jobs=%d failed=%d wall_s=%.4f setup_s=%.4f peak_rss_mb=%.1f retained_heap_mb=%.1f digest=%.16s child_s=%.2f\n",
			i, r.Seed, r.Traced, r.Jobs, r.Failed, r.Metrics["wall_s"], r.Metrics["setup_s"],
			r.Metrics["peak_rss_mb"], r.Metrics["retained_heap_mb"], r.Digest, s.childTimes[i])
	}
	for _, p := range s.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	failedFrac := 0.0
	if s.attempted > 0 {
		failedFrac = float64(s.failed) / float64(s.attempted)
	}
	fmt.Fprintf(w, "end-to-end (untraced medians):\n")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-28s %14.6f %s\n", d.name, s.e2e[d.name], d.unit)
	}
	fmt.Fprintf(w, "  %-28s %14.6f %s (%d of %d jobs)\n", "failed_frac", failedFrac, "frac", s.failed, s.attempted)
	result := map[string]any{}
	defs := endToEnd
	if s.trace {
		defs = perLayer
		fmt.Fprintf(w, "per-layer (traced medians)                     unit           moves\n")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-28s %14.6f %-14s %s\n", d.name, s.metrics[d.name], d.unit, d.moves)
		}
		s.printShares(w)
	}
	for _, d := range defs {
		if d.report {
			result[d.name] = map[string]any{"value": s.metrics[d.name], "unit": d.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   s.correct,
		"attempted": max(s.attempted, 1),
		"failed":    s.failed,
		"metrics":   result,
	})
	fmt.Fprintln(w, string(line))
}

// printShares prints the workload-design checks: the layer each workload
// was chosen to load should own most of its time.
func (s *summary) printShares(w io.Writer) {
	m := s.metrics
	share := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	jobs := m["harness.job_s.sum"]
	fmt.Fprintf(w, "design shares (traced):\n")
	fmt.Fprintf(w, "  core.place_s.magic / wall_s                    %.3f\n", share(m["core.place_s.magic"], m["wall_s"]))
	fmt.Fprintf(w, "  (gamma.build_s.sum + gamma.run_s.sum) / job_s  %.3f\n", share(m["gamma.build_s.sum"]+m["gamma.run_s.sum"], jobs))
	fmt.Fprintf(w, "  serve.run_s / job_s                            %.3f\n", share(m["serve.run_s"], jobs))
}
