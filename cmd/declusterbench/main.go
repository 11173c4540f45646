// Command declusterbench regenerates the paper's evaluation figures: for
// each figure of Section 7 it sweeps the multiprogramming level over the
// MAGIC, BERD and range declustering strategies on the simulated Gamma
// machine and prints the throughput series (and, with -detail, per-point
// diagnostics). The (figure, strategy, MPL) runs execute concurrently on a
// bounded worker pool; results are identical whatever the worker count.
//
// Usage:
//
//	declusterbench [flags]
//
//	-fig 8a,8b,...   figures to run (default: all; "none" skips figures)
//	-scale paper     "paper" (100k tuples, MPL 1..64) or "quick"
//	-card N          override relation cardinality
//	-procs N         override processor count
//	-mpl 1,8,64      override the MPL sweep
//	-measure N       override queries measured per point
//	-warmup N        override warm-up queries per point
//	-seed N          experiment seed (default 1; an explicit -seed 0 is honored)
//	-parallel N      worker pool size (default 0 = GOMAXPROCS; results
//	                 do not depend on N)
//	-timeout D       wall-clock budget per (strategy, MPL) run, e.g. 10m
//	-manifest FILE   write the run manifest (per-job wall times, worker
//	                 count, speedup, failure records) as JSON
//	-detail          print per-point diagnostics
//	-node-stats      print each strategy's per-node utilization table at the
//	                 highest MPL of the sweep (execution-skew breakdown)
//	-csv             emit CSV instead of aligned tables
//	-bench-out FILE  run the simulation-kernel microbenchmark suite and
//	                 write a JSON report (combine with -fig none to run
//	                 benchmarks alone)
//
// Open-system serving mode (ROADMAP item 1; see DESIGN.md §9): instead of
// the closed MPL sweep, admit queries from an open arrival process through
// the admission controller and report sustainable throughput, tail latency
// and shed rate per strategy and offered load, ending with a "serving
// summary" block per figure:
//
//	-open            run the open-system serving campaign (default figure
//	                 scope: 8a when -fig is not given)
//	-arrival K       arrival process: poisson (default), bursty, or diurnal
//	-lambda L        comma-separated offered loads in queries/second
//	                 (default 100,200,400,800)
//	-tenants N       tenant count for weighted round-robin dispatch (default 4)
//	-slo-ms MS       latency SLO for goodput accounting (default 1000)
//	-governor N      MPL governor: concurrent-execution cap (default 64)
//
// Time-resolved telemetry (DESIGN.md §10): windowed time-series sampling on
// every machine the campaign builds, goodput/skew-over-time tables and SLO
// burn lines per figure, CSV export, and a live OpenMetrics endpoint:
//
//	-ts-window D     arm telemetry with sampling window D (e.g. 250ms)
//	-ts-dir DIR      write one CSV time-series file per open-system point
//	                 into DIR (implies -ts-window 250ms when not given)
//	-metrics-addr A  serve OpenMetrics on A at /metrics while running
//	                 (implies telemetry); each point registers under its
//	                 job ID as it completes
//	-metrics-linger D keep the /metrics endpoint up D after the campaign
//	                 (lets scrapers collect the final state; CI uses this)
//
// Fragment heat (DESIGN.md §11): per-fragment access accounting, heatmap
// tables with concentration indices, hot-fragment reports, and
// deterministic CSV export:
//
//	-heatmap         arm fragment heat accounting; print per-strategy
//	                 heatmap tables and a hot-fragments line per figure
//	-heatmap-dir DIR write one canonical-order heat CSV per (figure,
//	                 strategy) into DIR (implies -heatmap)
//	-heat-topk K     hot-fragment report size (default 5; implies -heatmap)
//
// Shared scans (DESIGN.md §12): predicate-grouped batching of concurrent
// selections into shared disk passes, measured off-vs-on per strategy under
// a hot-spot overlay:
//
//	-share           run the shared-scan campaign instead of the figure
//	                 campaign (default figure scope: 11a when -fig is not
//	                 given); prints a per-point off/on table plus greppable
//	                 "sharing figX/strategy mpl=N: ..." summary lines
//	-share-window D  batching window in simulated time (default: the gamma
//	                 default, 5ms)
//
// -share also refuses every fault flag: its off column is the fault-free
// baseline.
//
// Elastic membership (DESIGN.md §13): serve an open arrival process while
// the membership controller joins a standby node and decommissions a member
// mid-run, restaging each strategy's own placement at the new node count
// behind a throttled background copy and a dual-read cutover:
//
//	-elastic         run the elasticity campaign (default figure scope: 8a
//	                 when -fig is not given); prints a per-point table of
//	                 time-to-rebalance, data moved and goodput dip plus one
//	                 greppable "rebalance summary: ..." line per point
//	-join-at D       schedule one standby join at offset D (default 300ms;
//	                 negative disables the join)
//	-leave-at D      schedule the decommission of -leave-node at offset D
//	                 (default 3x -join-at; negative disables it)
//	-leave-node N    the member decommissioned at -leave-at (default 1)
//	-migrate-rate R  throttle the background copier to R pages/second
//	                 (default: the rebalance package default)
//	-sizes 4,8       comma-separated initial cluster sizes (default -procs)
//
// The elasticity campaign reuses -arrival, -tenants, -slo-ms and -governor;
// -lambda's first value is the offered load (default 100).
//
// Fault injection (all fault flags imply chained replicas and the degraded
// scheduler; see DESIGN.md §8):
//
//	-faults 0,1,2    run the degraded-mode campaign instead of the figure
//	                 campaign: for each selected figure, sweep each strategy
//	                 with k disks fail-stopped for each listed k
//	-mtbf D          arm stochastic transient disk read errors with mean
//	                 time D between faults per disk (e.g. -mtbf 500ms)
//	-kill-disk L     fail-stop disks: comma-separated "n@t[+d]" items, e.g.
//	                 "3@10ms" (node 3's disk dies 10ms in) or "0@5ms+200ms"
//	                 (repaired 200ms later)
//	-kill-node L     crash nodes, same "n@t[+d]" syntax (restart after +d,
//	                 otherwise down for the rest of the run)
//
// Runs with faults armed print a summary line
// "fault outcomes: ok=N retried=N timed_out=N failed=N" that CI greps.
//
// -open, -elastic, -share and -faults each select one campaign mode; at
// most one of them may be set per run.
//
// Profiling the simulator itself:
//
//	-cpuprofile FILE  write a pprof CPU profile of the whole run
//	-memprofile FILE  write a pprof heap profile at exit
//	-httppprof ADDR   serve net/http/pprof on ADDR (e.g. localhost:6060)
//	                  for live inspection of long campaigns
//
// Exit status is non-zero when any simulation job fails or when -compare
// finds throughput drifts beyond the tolerance, so both can gate CI.
// -tolerance 0 demands exactly equal throughputs.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		figList     = flag.String("fig", "", "comma-separated figure ids (default: all)")
		scale       = flag.String("scale", "paper", `"paper" or "quick"`)
		card        = flag.Int("card", 0, "relation cardinality override")
		procs       = flag.Int("procs", 0, "processor count override")
		mplList     = flag.String("mpl", "", "comma-separated MPL sweep override")
		measure     = flag.Int("measure", 0, "measured queries per point override")
		warmup      = flag.Int("warmup", 0, "warm-up queries per point override")
		seed        = flag.Int64("seed", 0, "experiment seed override (0 is a valid seed when given explicitly)")
		parallel    = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget per (strategy, MPL) run (0 = none)")
		manifestOut = flag.String("manifest", "", "write the JSON run manifest to this file")
		detail      = flag.Bool("detail", false, "print per-point diagnostics")
		plot        = flag.Bool("plot", false, "draw each figure as an ASCII chart")
		jsonOut     = flag.String("json", "", "write results to a JSON archive")
		compare     = flag.String("compare", "", "compare against a previous JSON archive")
		tolerance   = flag.Float64("tolerance", 0.05, "relative drift threshold for -compare (0 = exact)")
		csv         = flag.Bool("csv", false, "emit CSV")
		scaleout    = flag.Bool("scaleout", false, "run the machine-size sweep too")
		nodeStats   = flag.Bool("node-stats", false, "print per-node utilization tables (highest MPL)")
		benchOut    = flag.String("bench-out", "", "run the kernel microbenchmark suite and write a JSON report")
		open        = flag.Bool("open", false, "run the open-system serving campaign instead of the closed MPL sweep")
		arrival     = flag.String("arrival", "poisson", "open arrival process: poisson, bursty, or diurnal")
		lambdaList  = flag.String("lambda", "", "comma-separated offered loads in q/s (default 100,200,400,800)")
		tenants     = flag.Int("tenants", 0, "open-system tenant count (default 4)")
		sloMS       = flag.Float64("slo-ms", 0, "open-system latency SLO in milliseconds (default 1000)")
		governor    = flag.Int("governor", 0, "open-system MPL governor: concurrent-execution cap (default 64)")
		tsWindow    = flag.Duration("ts-window", 0, "arm windowed telemetry with this sampling window (e.g. 250ms; 0 = off)")
		tsDir       = flag.String("ts-dir", "", "write per-point CSV time-series files into this directory (implies telemetry)")
		metricsAddr = flag.String("metrics-addr", "", "serve live OpenMetrics on this address at /metrics (implies telemetry)")
		metricsLing = flag.Duration("metrics-linger", 0, "keep the /metrics endpoint up this long after the campaign")
		heatmap     = flag.Bool("heatmap", false, "arm fragment heat accounting and print per-strategy heatmap tables")
		heatmapDir  = flag.String("heatmap-dir", "", "write per-strategy fragment heat CSVs into this directory (implies -heatmap)")
		heatTopK    = flag.Int("heat-topk", 0, "hot-fragment report size (default 5; implies -heatmap)")
		share       = flag.Bool("share", false, "run the shared-scan campaign (sharing off vs on per strategy)")
		elastic     = flag.Bool("elastic", false, "run the elasticity campaign (join + decommission under open load)")
		joinAt      = flag.Duration("join-at", 0, "standby join offset (default 300ms; negative disables)")
		leaveAt     = flag.Duration("leave-at", 0, "decommission offset (default 3x -join-at; negative disables)")
		leaveNode   = flag.Int("leave-node", 0, "member decommissioned at -leave-at (default 1)")
		migrateRate = flag.Int("migrate-rate", 0, "background copier throttle in pages/second (0 = rebalance default)")
		sizeList    = flag.String("sizes", "", "comma-separated initial cluster sizes (default -procs)")
		shareWindow = flag.Duration("share-window", 0, "shared-scan batching window in simulated time (0 = gamma default)")
		faultsKs    = flag.String("faults", "", `degraded-mode campaign: comma-separated failed-disk counts, e.g. "0,1,2"`)
		mtbf        = flag.Duration("mtbf", 0, "mean time between stochastic transient disk read errors (0 = off)")
		killDisk    = flag.String("kill-disk", "", `fail-stop disks: comma-separated "n@t[+d]" items, e.g. "3@10ms" or "0@5ms+200ms"`)
		killNode    = flag.String("kill-node", "", `crash nodes: comma-separated "n@t[+d]" items (restart after +d, else down for the run)`)
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
		httpPprof   = flag.String("httppprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "declusterbench:", err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "declusterbench:", err)
			}
			f.Close()
		}()
	}
	if *httpPprof != "" {
		go func() {
			if err := http.ListenAndServe(*httpPprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "declusterbench: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof server on http://%s/debug/pprof/\n", *httpPprof)
	}
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	opts, err := buildOptions(*scale, *card, *procs, *mplList, *measure, *warmup, *seed, seedSet)
	if err != nil {
		return fail(err)
	}
	figs, err := selectFigures(*figList)
	if err != nil {
		return fail(err)
	}
	oopts, err := buildOpenOptions(*arrival, *lambdaList, *tenants, *sloMS, *governor)
	if err != nil {
		return fail(err)
	}
	spec, err := buildFaultSpec(*mtbf, *killDisk, *killNode)
	if err != nil {
		return fail(err)
	}
	if spec.Enabled() {
		opts.ArmFaults(spec, true)
	}
	mode, err := campaignMode(*open, *elastic, *share, *faultsKs != "", spec.Enabled())
	if err != nil {
		return fail(err)
	}
	// The extension campaigns default to one figure when -fig is not given:
	// an open or elastic sweep over all nine figures at paper scale would
	// dwarf the closed-loop campaign, and the sharing campaign (every point
	// runs twice) uses the Moderate-Low figure, where batch overlap is most
	// visible.
	if *figList == "" && mode != "" {
		def := "8a"
		if mode == "share" {
			def = "11a"
		}
		if figs, err = selectFigures(def); err != nil {
			return fail(err)
		}
	}
	if mode != "" && len(figs) == 0 {
		return fail(fmt.Errorf(`-%s needs at least one figure (drop "-fig none")`, mode))
	}
	ks, err := parseInts("faults", *faultsKs, 0)
	if err != nil {
		return fail(err)
	}
	if *tolerance < 0 {
		return fail(fmt.Errorf("negative -tolerance %g", *tolerance))
	}
	if *migrateRate < 0 {
		return fail(fmt.Errorf("negative -migrate-rate %d", *migrateRate))
	}
	sizes, err := parseInts("sizes", *sizeList, 1)
	if err != nil {
		return fail(err)
	}
	if *shareWindow < 0 {
		return fail(fmt.Errorf("negative -share-window %v", *shareWindow))
	}
	if *tsWindow < 0 {
		return fail(fmt.Errorf("negative -ts-window %v", *tsWindow))
	}
	if *tsWindow > 0 || *tsDir != "" || *metricsAddr != "" {
		w := *tsWindow
		if w <= 0 {
			w = 250 * time.Millisecond
		}
		opts.ArmTelemetry(float64(w)/float64(time.Millisecond), 0, 0)
	}
	if *heatTopK < 0 {
		return fail(fmt.Errorf("negative -heat-topk %d", *heatTopK))
	}
	if *heatmap || *heatmapDir != "" || *heatTopK > 0 {
		opts.ArmHeat(*heatTopK)
	}
	var hub *obs.Hub
	if *metricsAddr != "" {
		hub = obs.NewHub()
		mux := http.NewServeMux()
		mux.Handle("/metrics", hub)
		// Listen synchronously so the endpoint is scrapeable the moment the
		// banner prints (CI polls it right after startup).
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fail(err)
		}
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				fmt.Fprintln(os.Stderr, "declusterbench: metrics server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving OpenMetrics on http://%s/metrics\n", ln.Addr())
	}

	exit := 0
	warn := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "declusterbench:", err)
			exit = 1
		}
	}
	if *benchOut != "" {
		fmt.Fprintln(os.Stderr, "running kernel microbenchmark suite...")
		warn(runBenchSuite(*benchOut))
	}
	archive := experiments.Archive{Label: "declusterbench", Options: opts}
	var manifests []harness.Manifest
	var heat []heatFile
	copts := experiments.CampaignOptions{
		Workers:    *parallel,
		JobTimeout: *timeout,
		Progress:   os.Stderr,
		Hub:        hub,
	}
	// begin announces one campaign and labels its options; end files the
	// campaign's manifest and reports its failures.
	begin := func(label string) experiments.CampaignOptions {
		fmt.Fprintf(os.Stderr, "running %s campaign on %d workers...\n", label, workersFor(*parallel))
		copts.Label = label
		return copts
	}
	end := func(m harness.Manifest, err error) {
		warn(err)
		manifests = append(manifests, m)
	}

	switch mode {
	case "open":
		c, err := experiments.RunOpenSystem(figs, opts, oopts, begin("open"))
		end(c.Manifest, err)
		if *tsDir != "" {
			warn(writeTimeSeriesCSVs(*tsDir, c.Manifest))
		}
		for _, res := range c.Figures {
			printTable(res.Table(), *csv)
			printNotes(res.Notes)
			if *detail {
				printTable(res.DetailTable(), *csv)
			}
			fmt.Println()
			printTable(res.SummaryTable(), *csv)
			fmt.Println()
			printOpenTelemetry(res, *csv)
			heat = append(heat, printHeat(res.Figure, res, *csv)...)
		}
	case "elastic":
		eopts := experiments.ElasticOptions{
			Arrival:      oopts.Arrival,
			Tenants:      oopts.Tenants,
			SLOms:        oopts.SLOms,
			MaxInService: oopts.MaxInService,
			JoinAt:       sim.Duration(*joinAt),
			LeaveAt:      sim.Duration(*leaveAt),
			LeaveNode:    *leaveNode,
			MigrateRate:  *migrateRate,
			Sizes:        sizes,
		}
		if len(oopts.Lambdas) > 0 {
			eopts.Lambda = oopts.Lambdas[0]
		}
		c, err := experiments.RunElastic(figs, opts, eopts, begin("elastic"))
		end(c.Manifest, err)
		if *tsDir != "" {
			warn(writeTimeSeriesCSVs(*tsDir, c.Manifest))
		}
		for _, res := range c.Figures {
			printTable(res.Table(), *csv)
			printNotes(res.Notes)
			for _, p := range res.Points {
				if p.Summary != "" {
					fmt.Printf("fig%s/%s n=%d %s\n", res.Figure.ID, p.Strategy, p.Size, p.Summary)
				}
			}
			fmt.Println()
		}
	case "faults":
		results, m, err := experiments.RunDegraded(figs, ks, opts, begin("degraded"))
		end(m, err)
		for _, res := range results {
			printTable(res.Table(), *csv)
			fmt.Printf("fault outcomes: %s\n\n", res.Outcomes())
		}
	case "share":
		windowMS := float64(*shareWindow) / float64(time.Millisecond)
		results, m, err := experiments.RunSharing(figs, windowMS, opts, begin("sharing"))
		end(m, err)
		for _, res := range results {
			printTable(res.Table(), *csv)
			for _, line := range res.Summary() {
				fmt.Println(line)
			}
			saved, best := res.MaxSaved()
			fmt.Printf("sharing best: %.1f%% disk reads saved (%s fig%s MPL %d)\n\n",
				100*saved, best.Strategy, res.Figure.ID, best.MPL)
		}
	default:
		if len(figs) == 0 {
			break
		}
		c, err := experiments.RunCampaign(figs, opts, begin("figures"))
		end(c.Manifest, err)
		var outcomes gamma.Outcomes
		for _, res := range c.Figures {
			archive.Figures = append(archive.Figures, res.Archive())
			printTable(res.Table(), *csv)
			printNotes(res.Notes)
			if *plot {
				fmt.Println()
				fmt.Println(res.Chart().String())
			}
			if *detail {
				printTable(res.DetailTable(), *csv)
			}
			if *nodeStats {
				printNodeStats(res, *csv)
			}
			heat = append(heat, printHeat(res.Figure, res, *csv)...)
			fmt.Println()
			for _, p := range res.Points {
				o := p.Result.Outcomes
				outcomes.OK += o.OK
				outcomes.Retried += o.Retried
				outcomes.TimedOut += o.TimedOut
				outcomes.Failed += o.Failed
			}
		}
		if opts.Faults.Enabled() {
			fmt.Printf("fault outcomes: %s\n", outcomes)
		}
	}
	if *heatmapDir != "" && len(heat) > 0 {
		warn(writeHeatCSVs(*heatmapDir, heat))
	}

	if *jsonOut != "" {
		if err := writeFile(*jsonOut, func(w io.Writer) error { return experiments.WriteArchive(w, archive) }); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
	if *compare != "" {
		f, err := os.Open(*compare)
		if err != nil {
			return fail(err)
		}
		baseline, err := experiments.ReadArchive(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		diffs := experiments.CompareArchives(baseline, archive, *tolerance)
		if len(diffs) == 0 {
			fmt.Printf("no throughput drifts beyond %.0f%% versus %s\n", *tolerance*100, *compare)
		} else {
			fmt.Printf("throughput drifts beyond %.0f%% versus %s:\n", *tolerance*100, *compare)
			for _, d := range diffs {
				fmt.Println("  " + d)
			}
			exit = 1
		}
	}

	if *scaleout {
		res, m, err := experiments.RunScaleSweep(experiments.DefaultScaleSweep(), opts, begin("scaleout"))
		end(m, err)
		printTable(res.Table(), *csv)
	}

	if *manifestOut != "" && len(manifests) > 0 {
		merged := harness.Merge("declusterbench", manifests...)
		if err := writeFile(*manifestOut, merged.Write); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d jobs, %d workers, %.2fx speedup vs serial)\n",
			*manifestOut, merged.Jobs, merged.Workers, merged.Speedup)
	}
	if hub != nil && *metricsLing > 0 {
		fmt.Fprintf(os.Stderr, "metrics endpoint lingering %v (%d runs registered)...\n",
			*metricsLing, len(hub.Runs()))
		time.Sleep(*metricsLing)
	}
	return exit
}

// printOpenTelemetry emits the time-resolved blocks of one open figure when
// its points carry telemetry: goodput-over-time and disk-skew-over-time at
// the highest offered load (where the time axis is most interesting), plus
// one SLO burn line per strategy at that load.
func printOpenTelemetry(res experiments.OpenFigureResult, csv bool) {
	if !res.HasTimeSeries() || len(res.Open.Lambdas) == 0 {
		return
	}
	lambda := slices.Max(res.Open.Lambdas)
	printTable(res.GoodputOverTime(lambda), csv)
	printTable(res.SkewOverTime(lambda), csv)
	for _, p := range res.Points {
		if p.Lambda != lambda || p.Result.Serve.Burn == nil {
			continue
		}
		b := p.Result.Serve.Burn
		line := fmt.Sprintf("slo burn %s λ=%g: %d/%d windows violated (max burn %.2f, budget %.2f)",
			p.Strategy, lambda, b.Violated, b.Windows, b.MaxBurnRate, b.Budget)
		if b.FirstViolation > 0 {
			line += fmt.Sprintf(", first violation at %v", sim.Duration(b.FirstViolation))
			if b.Recovery > 0 {
				line += fmt.Sprintf(", recovered at %v", sim.Duration(b.Recovery))
			} else {
				line += ", never recovered"
			}
		}
		fmt.Println(line)
	}
	fmt.Println()
}

// writeTimeSeriesCSVs writes one CSV file per job that carries telemetry,
// named after the job ID. It runs on the main goroutine over the manifest's
// canonical job order, so the files are identical at any worker count.
func writeTimeSeriesCSVs(dir string, manifest harness.Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := 0
	for _, r := range manifest.Reports {
		if len(r.TimeSeries) == 0 {
			continue
		}
		path := filepath.Join(dir, strings.ReplaceAll(r.ID, "/", "_")+".csv")
		if err := writeFile(path, func(w io.Writer) error { return obs.WriteSeriesCSV(w, r.TimeSeries) }); err != nil {
			return err
		}
		n++
	}
	fmt.Fprintf(os.Stderr, "wrote %d time-series CSV files to %s\n", n, dir)
	return nil
}

// printTable emits a table as CSV or as aligned text.
func printTable(tb *stats.Table, csv bool) {
	if csv {
		fmt.Print(tb.CSV())
	} else {
		fmt.Println(tb.String())
	}
}

// printNotes emits a figure's construction notes, indented.
func printNotes(notes []string) {
	for _, n := range notes {
		fmt.Printf("  %s\n", n)
	}
}

// heatSource is a figure result carrying per-strategy fragment heat (the
// closed-loop and the open-system figure results).
type heatSource interface {
	StrategyHeat(strategy string) *obs.HeatSnapshot
	HeatTable(strategy string) *stats.Table
}

// heatFile is one (figure, strategy) merged heat snapshot destined for a
// CSV file in -heatmap-dir.
type heatFile struct {
	name string
	snap *obs.HeatSnapshot
}

// printHeat emits each strategy's merged fragment heatmap plus its
// hot-fragments line, and returns the snapshots as -heatmap-dir files in
// canonical (figure, strategy) order. Nothing is printed when heat was not
// armed.
func printHeat(fig experiments.Figure, res heatSource, csv bool) []heatFile {
	var files []heatFile
	for _, s := range fig.Strategies {
		snap := res.StrategyHeat(s)
		if snap == nil {
			continue
		}
		printTable(res.HeatTable(s), csv)
		if line := experiments.HotLine(fig.ID, s, snap); line != "" {
			fmt.Println(line)
		}
		files = append(files, heatFile{"fig" + fig.ID + "_" + s + "_heat.csv", snap})
	}
	return files
}

// writeHeatCSVs writes one canonical-order fragment heat CSV per
// (figure, strategy). It runs on the main goroutine over figure order and
// the snapshots' rows are canonically sorted, so the files are
// byte-identical at any worker count.
func writeHeatCSVs(dir string, files []heatFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, hf := range files {
		if err := writeFile(filepath.Join(dir, hf.name), func(w io.Writer) error { return obs.WriteHeatCSV(w, hf.snap) }); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d fragment heat CSV files to %s\n", len(files), dir)
	return nil
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printNodeStats emits each strategy's per-node utilization table at the
// sweep's highest MPL, where execution skew is most visible.
func printNodeStats(res experiments.FigureResult, csv bool) {
	if len(res.Options.MPLs) == 0 {
		return
	}
	maxMPL := slices.Max(res.Options.MPLs)
	for _, s := range res.Figure.Strategies {
		if tb := res.NodeTable(s, maxMPL); tb != nil {
			printTable(tb, csv)
		}
	}
}

// campaignMode enforces one campaign mode per run and names it: "" for the
// closed-loop figure campaign, otherwise "open", "elastic", "share" or
// "faults". At most one of those flags may be set, and -share also refuses
// every fault flag (faultFlags: -mtbf, -kill-disk, -kill-node), since its
// off column is the fault-free baseline.
func campaignMode(open, elastic, share, faults, faultFlags bool) (string, error) {
	var set []string
	for _, m := range []struct {
		name string
		on   bool
	}{{"open", open}, {"elastic", elastic}, {"share", share}, {"faults", faults}} {
		if m.on {
			set = append(set, m.name)
		}
	}
	switch {
	case len(set) > 1:
		return "", fmt.Errorf("only one of -open, -elastic, -share and -faults may be set, got -%s (one campaign mode per run)",
			strings.Join(set, " -"))
	case share && faultFlags:
		return "", fmt.Errorf("-share is mutually exclusive with the fault flags (one campaign mode per run)")
	case len(set) == 1:
		return set[0], nil
	}
	return "", nil
}

// workersFor mirrors the harness default so the banner matches reality.
func workersFor(parallel int) int {
	if parallel > 0 {
		return parallel
	}
	return runtime.GOMAXPROCS(0)
}

func buildOptions(scale string, card, procs int, mplList string, measure, warmup int, seed int64, seedSet bool) (experiments.Options, error) {
	var opts experiments.Options
	switch scale {
	case "paper":
		opts = experiments.PaperScale()
	case "quick":
		opts = experiments.QuickScale()
	default:
		return opts, fmt.Errorf("unknown -scale %q (want paper or quick)", scale)
	}
	if card > 0 {
		opts.Cardinality = card
	}
	if procs > 0 {
		opts.Processors = procs
	}
	if measure > 0 {
		opts.MeasureQueries = measure
	}
	if warmup > 0 {
		opts.WarmupQueries = warmup
	}
	if seedSet {
		opts.Seed = seed
		opts.SeedSet = true
	}
	if mplList != "" {
		mpls, err := parseInts("mpl", mplList, 1)
		if err != nil {
			return opts, err
		}
		opts.MPLs = mpls
	}
	return opts, nil
}

// buildOpenOptions assembles the open-system campaign options from the
// -arrival, -lambda, -tenants, -slo-ms and -governor flags. Zero values
// defer to the experiments-package defaults.
func buildOpenOptions(arrival, lambdaList string, tenants int, sloMS float64, governor int) (experiments.OpenOptions, error) {
	kind, err := serve.ParseArrivalKind(arrival)
	if err != nil {
		return experiments.OpenOptions{}, err
	}
	oopts := experiments.OpenOptions{
		Arrival:      kind,
		Tenants:      tenants,
		SLOms:        sloMS,
		MaxInService: governor,
	}
	if tenants < 0 {
		return oopts, fmt.Errorf("negative -tenants %d", tenants)
	}
	if sloMS < 0 {
		return oopts, fmt.Errorf("negative -slo-ms %g", sloMS)
	}
	if governor < 0 {
		return oopts, fmt.Errorf("negative -governor %d", governor)
	}
	if lambdaList != "" {
		for _, s := range strings.Split(lambdaList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 {
				return oopts, fmt.Errorf("bad -lambda %q (want positive numbers)", s)
			}
			oopts.Lambdas = append(oopts.Lambdas, v)
		}
	}
	return oopts, nil
}

func selectFigures(list string) ([]experiments.Figure, error) {
	if list == "" {
		return experiments.Figures(), nil
	}
	if list == "none" {
		return nil, nil
	}
	var out []experiments.Figure
	for _, id := range strings.Split(list, ",") {
		fig, err := experiments.FigureByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// buildFaultSpec assembles the run's fault spec from the -mtbf, -kill-disk
// and -kill-node flags. An all-defaults spec (Enabled() == false) leaves the
// run byte-identical to a fault-free build.
func buildFaultSpec(mtbf time.Duration, killDisk, killNode string) (*fault.Spec, error) {
	if mtbf < 0 {
		return nil, fmt.Errorf("negative -mtbf %v", mtbf)
	}
	spec := &fault.Spec{MTBF: sim.Duration(mtbf)}
	if err := parseKillList(killDisk, fault.DiskFail, spec); err != nil {
		return nil, fmt.Errorf("-kill-disk: %w", err)
	}
	if err := parseKillList(killNode, fault.NodeCrash, spec); err != nil {
		return nil, fmt.Errorf("-kill-node: %w", err)
	}
	return spec, nil
}

// parseKillList parses a comma-separated list of "n@t[+d]" items — node n
// fails at offset t, recovering d later when the +d suffix is present — and
// appends the corresponding events to spec. Durations use Go syntax
// (time.ParseDuration); simulation time is nanoseconds 1:1 with
// time.Duration.
func parseKillList(list string, kind fault.Kind, spec *fault.Spec) error {
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		ev, err := parseKill(item, kind)
		if err != nil {
			return err
		}
		spec.Events = append(spec.Events, ev)
	}
	return nil
}

func parseKill(s string, kind fault.Kind) (fault.Event, error) {
	i := strings.IndexByte(s, '@')
	if i < 0 {
		return fault.Event{}, fmt.Errorf("bad item %q (want n@t or n@t+d)", s)
	}
	node, err := strconv.Atoi(s[:i])
	if err != nil || node < 0 {
		return fault.Event{}, fmt.Errorf("bad node in %q", s)
	}
	at, rest := s[i+1:], ""
	if j := strings.IndexByte(at, '+'); j >= 0 {
		at, rest = at[:j], at[j+1:]
	}
	t, err := time.ParseDuration(at)
	if err != nil || t < 0 {
		return fault.Event{}, fmt.Errorf("bad offset in %q", s)
	}
	ev := fault.Event{At: sim.Duration(t), Kind: kind, Node: node}
	if rest != "" {
		d, err := time.ParseDuration(rest)
		if err != nil || d <= 0 {
			return fault.Event{}, fmt.Errorf("bad recovery duration in %q", s)
		}
		ev.Dur = sim.Duration(d)
	}
	return ev, nil
}

// parseInts parses the comma-separated integer list of flag -name; every
// entry must be at least min. An empty list yields nil.
func parseInts(name, list string, min int) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var out []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < min {
			return nil, fmt.Errorf("bad -%s entry %q (want integers >= %d)", name, s, min)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "declusterbench:", err)
	return 1
}
