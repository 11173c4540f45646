package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
)

const mb = 1 << 20

// leakProbe is the process state a campaign may leave behind.
type leakProbe struct {
	goroutines int
	heapMB     float64 // HeapAlloc after a forced GC
	cpuS       float64 // busy CPU: total minus idle (runtime/metrics)
	gcCPUS     float64
	allocGB    float64 // cumulative heap allocation
}

// probe collects garbage twice (the second pass frees what finalizers
// released) and reads the leak and process counters.
func probe() leakProbe {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	proc := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(proc)
	return leakProbe{
		goroutines: runtime.NumGoroutine(),
		heapMB:     float64(ms.HeapAlloc) / mb,
		cpuS:       proc[0].Value.Float64() - proc[1].Value.Float64(),
		gcCPUS:     proc[2].Value.Float64(),
		allocGB:    float64(proc[3].Value.Uint64()) / (1 << 30),
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, from procfs.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// host records where a result was measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s", h.NumCPU, h.GOMAXPROCS, h.GoVersion)
}

// repResult is one campaign run in one process, as the child reports it.
type repResult struct {
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Jobs     int                `json:"jobs"`
	Failed   int                `json:"failed_jobs"`
	Problems []string           `json:"problems,omitempty"`
	Digest   string             `json:"digest"`
	Metrics  map[string]float64 `json:"metrics"`
	Host     host               `json:"host"`
}

// runRep runs the workload's campaign once, renders and checks its output
// and measures it. With traced set it runs the traced re-implementation
// and adds the per-layer metrics; the spans go to traceOut when non-empty.
func runRep(s spec, traced bool, root, traceOut string) (repResult, string, error) {
	before := probe()
	var t *tracer
	o := &outcome{}
	start := time.Now()
	var call time.Duration
	if traced {
		t = newTracer()
		campaign := t.start(s.Name, 0, spanCampaign, "")
		if s.Elastic != nil {
			o.elastic, o.err = s.tracedElastic(t, campaign.s.ID)
		} else {
			o.closed, o.err = s.tracedClosed(t, campaign.s.ID)
		}
		call = time.Since(start)
		report := t.start(s.Name, campaign.s.ID, spanReport, "")
		if err := s.render(o); err != nil {
			return repResult{}, "", err
		}
		report.end()
		campaign.end()
	} else {
		copts := experiments.CampaignOptions{Workers: workers, Label: s.Name}
		if s.Elastic != nil {
			o.elastic, o.err = experiments.RunElastic(s.Figures, s.Opts, *s.Elastic, copts)
		} else {
			o.closed, o.err = experiments.RunCampaign(s.Figures, s.Opts, copts)
		}
		call = time.Since(start)
		if err := s.render(o); err != nil {
			return repResult{}, "", err
		}
	}
	wall := time.Since(start)

	manifest := o.closed.Manifest
	if s.Elastic != nil {
		manifest = o.elastic.Manifest
	}
	res := repResult{
		Seed: s.Seed, Traced: traced,
		Jobs: manifest.Jobs, Failed: manifest.Failed,
		Problems: s.check(o, root),
		Digest:   digest(o.text),
		Host:     host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()},
	}
	st := s.simStats(o)
	text := o.text
	poolS, jobS, nRetries := manifest.WallMS/1000, manifest.SumJobMS/1000, retries(manifest)
	o, manifest = nil, harness.Manifest{} // drop the campaign before the leak probe
	after := probe()
	rss, err := peakRSSMB()
	if err != nil {
		return repResult{}, "", err
	}
	m := map[string]float64{
		"wall_s":           wall.Seconds(),
		"setup_s":          call.Seconds() - poolS,
		"peak_rss_mb":      rss,
		"retained_heap_mb": after.heapMB - before.heapMB,
	}
	res.Metrics = m
	if !traced {
		return res, text, nil
	}

	spans := t.sorted()
	if traceOut != "" {
		if err := writeSpans(t, traceOut); err != nil {
			return repResult{}, "", err
		}
	}
	for _, k := range []string{"storage.gen_s", "core.place_s.magic", "core.place_s.berd",
		"core.place_s.range", "core.rebuild_s", "serve.run_s", "experiments.report_s"} {
		m[k] = 0 // present on every workload, zero where the layer is not called
	}
	var builds, runs []float64
	for _, sp := range spans {
		d := sp.seconds()
		switch sp.Name {
		case spanGen:
			m["storage.gen_s"] += d
		case spanPlace, spanRebuild:
			m["core.place_s."+sp.Attr] += d
			if sp.Name == spanRebuild {
				m["core.rebuild_s"] += d
			}
		case spanBuild:
			builds = append(builds, d)
		case spanRun, spanServe:
			runs = append(runs, d)
			if sp.Name == spanServe {
				m["serve.run_s"] += d
			}
		case spanReport:
			m["experiments.report_s"] += d
		}
	}
	m["core.magic_swaps"], m["core.magic_cells"] = float64(t.magicSwaps.Load()), float64(t.magicCells.Load())
	addDist(m, "gamma.build_s", builds)
	addDist(m, "gamma.run_s", runs)
	if st.Queries > 0 {
		m["gamma.host_us_per_query"] = 1e6 * m["gamma.run_s.sum"] / st.Queries
	}
	m["serve.host_us_per_arrival"] = 0
	if st.Arrivals > 0 {
		m["serve.host_us_per_arrival"] = 1e6 * m["serve.run_s"] / st.Arrivals
	}
	m["gamma.goroutines_left"] = float64(after.goroutines - before.goroutines)
	m["gamma.heap_left_mb"] = after.heapMB - before.heapMB
	m["gamma.sim_s"] = st.SimS
	m["exec.disk_reads_per_query"] = st.DiskReadsPerQry
	m["buffer.hit_rate"] = st.BufferHitRate
	m["rebalance.pages_moved"] = st.PagesMoved
	m["rebalance.tasks"] = st.Tasks
	m["rebalance.ttr_ms"] = st.TTRms
	m["harness.pool_s"] = poolS
	m["harness.busy_frac"] = jobS / (float64(workers) * call.Seconds())
	m["harness.job_s.sum"] = jobS
	m["harness.retries"] = float64(nRetries)
	m["harness.failed"] = float64(res.Failed)
	m["proc.cpu_s"] = after.cpuS - before.cpuS
	m["proc.gc_cpu_s"] = after.gcCPUS - before.gcCPUS
	m["proc.alloc_gb"] = after.allocGB - before.allocGB
	for layer, v := range selfTimes(spans) {
		m["self_s."+layer] = v
	}
	return res, text, nil
}

func writeSpans(t *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func retries(m harness.Manifest) int {
	n := 0
	for _, r := range m.Reports {
		n += max(r.Attempts-1, 0)
	}
	return n
}

// addDist records a per-job timing distribution as median, p90, sum and
// sample count.
func addDist(m map[string]float64, name string, xs []float64) {
	m[name+".p50"] = quantile(xs, 0.5)
	m[name+".p90"] = quantile(xs, 0.9)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	m[name+".sum"] = sum
	m[name+".n"] = float64(len(xs))
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the midpoint median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
