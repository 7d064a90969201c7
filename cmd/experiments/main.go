// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                # run everything at default scale
//	experiments -run fig7      # one experiment
//	experiments -quick         # fast smoke run (6 workloads, short)
//	experiments -full          # heavyweight run (2M+8M instructions)
//	experiments -list          # list experiment IDs
//	experiments -resume        # reuse ./fdp-cache across invocations
//	experiments -cache DIR     # same, explicit cache directory
//
// Interrupting a run (Ctrl-C) cancels in-flight simulations promptly; with
// a cache directory, a re-run resumes from the results already stored.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"fdp/internal/experiments"
	"fdp/internal/monitor"
	"fdp/internal/obs"
	"fdp/internal/runner"
)

// defaultCacheDir is where -resume keeps results between invocations.
const defaultCacheDir = "fdp-cache"

func main() {
	var (
		run   = flag.String("run", "all", "experiment ID to run, or 'all'")
		quick = flag.Bool("quick", false, "quick smoke run")
		full  = flag.Bool("full", false, "heavyweight run")
		list  = flag.Bool("list", false, "list experiments and exit")
		csv   = flag.String("csv", "", "also write each experiment's tables as CSV files into this directory")

		workloads    = flag.String("workloads", "", "override the workload suite: comma-separated standard names and/or @file.yaml spec references")
		workloadSpec = flag.String("workload-spec", "", "workload spec file(s) to run the experiments on, comma-separated (combines with -workloads)")

		cacheDir = flag.String("cache", "", "store and reuse simulation results in this directory")
		resume   = flag.Bool("resume", false, "shorthand for -cache ./"+defaultCacheDir)

		ffwd       = flag.Bool("ffwd", false, "functional fast-forward warmup: train predictors/caches architecturally without timing the pipeline (different warmup semantics, much faster)")
		checkpoint = flag.Bool("checkpoint", false, "with -ffwd, pay each distinct warmup once per (workload, training config) and restore its checkpoint everywhere else")

		score = flag.Bool("score", false, "after the experiments, evaluate the reproduction contracts (internal/repro) and print the scorecard summary line; the run's result cache makes the scoring campaign cheap")

		check     = flag.Bool("check", false, "enable per-cycle invariant checking in every simulated core")
		watchdog  = flag.Duration("watchdog", 0, "cancel any simulation making no forward progress for this long (0 = off)")
		retries   = flag.Int("retries", 0, "retries for transiently failed jobs (panics), with exponential backoff")
		keepGoing = flag.Bool("keep-going", false, "quarantine failing jobs and keep running the rest of the grid")

		metricsOut   = flag.String("metrics", "", "write every run's observability manifest as JSONL to this file ('-' for stdout)")
		traceOut     = flag.String("trace", "", "write pipeline event traces as JSONL to this file ('-' for stdout)")
		traceCap     = flag.Int("trace-cap", 1<<14, "event-trace ring capacity (last N events per run)")
		intervals    = flag.Uint64("intervals", 0, "snapshot each run's cycle-accounting time-series every N cycles (0 = off)")
		intervalsOut = flag.String("intervals-out", "", "write interval records as JSONL to this file ('-' for stdout)")
		spansOut     = flag.String("spans", "", "write the runner's job lifecycle span timeline as JSONL to this file ('-' for stdout)")
		httpAddr     = flag.String("http", "", "serve live telemetry on this address (/metrics, /progress, /runs, /intervals, /timeline, /debug/pprof)")
		pprofOut     = flag.String("pprof", "", "write a CPU profile of the experiment run to this file")
	)
	flag.Parse()

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		for _, e := range experiments.AllWithExtensions() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiments.DefaultOptions()
	scale := "default"
	if *quick {
		opts = experiments.QuickOptions()
		scale = "quick"
	}
	if *full {
		opts = experiments.FullOptions()
		scale = "full"
	}
	if *workloads != "" || *workloadSpec != "" {
		ws, err := experiments.ParseWorkloads(*workloads, *workloadSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		opts.Workloads = ws
	}
	fmt.Printf("scale=%s workloads=%d warmup=%d measure=%d\n\n",
		scale, len(opts.Workloads), opts.Warmup, opts.Measure)

	// Ctrl-C cancels in-flight simulations cooperatively instead of
	// killing the process mid-write; a second interrupt kills outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts.Ctx = ctx

	// Experiments share one result cache: every table and figure re-runs
	// the same baseline config, so even a pure in-memory cache removes
	// duplicate simulations within a single invocation. A directory makes
	// it survive across invocations (-resume / -cache).
	if *resume && *cacheDir == "" {
		*cacheDir = defaultCacheDir
	}
	cache, err := runner.NewCache(runner.DefaultCacheCapacity, *cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	opts.Cache = cache
	runnerReg := obs.NewRegistry()
	opts.RunnerReg = runnerReg

	if *checkpoint && !*ffwd {
		fmt.Fprintln(os.Stderr, "experiments: -checkpoint requires -ffwd (checkpoints capture fast-forward warmup state)")
		os.Exit(1)
	}
	opts.FastForward = *ffwd
	opts.Checkpoint = *checkpoint

	opts.Check = *check
	opts.WatchdogTimeout = *watchdog
	opts.KeepGoing = *keepGoing
	if *retries > 0 {
		opts.Retry = runner.RetryPolicy{Attempts: *retries + 1}
	}
	// With a persistent cache directory, completion is journaled so a crash
	// (even kill -9) mid-run never lets a half-written result be trusted on
	// resume: only journaled specs may be served from the cache.
	if *cacheDir != "" {
		journal, err := runner.OpenJournal(filepath.Join(*cacheDir, "journal.wal"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer journal.Close()
		opts.Journal = journal
	}

	var manifests *obs.ManifestLog
	if *metricsOut != "" {
		manifests = obs.NewManifestLog()
		opts.Manifests = manifests
	}
	if *traceOut != "" {
		if *traceCap <= 0 {
			fmt.Fprintf(os.Stderr, "experiments: -trace-cap must be positive (got %d)\n", *traceCap)
			os.Exit(1)
		}
		traceW, err := obs.OpenSink(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer traceW.Close()
		opts.TraceCap = *traceCap
		opts.TraceSink = traceW
		// The result cache cannot replay trace output, so every run
		// re-simulates while tracing — say so instead of silently ignoring
		// the cache (which this command always creates).
		fmt.Fprintln(os.Stderr, "experiments: warning: the result cache is bypassed while -trace is active (traces cannot be replayed from cached results)")
	}
	if *intervals > 0 && *intervalsOut == "" && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "experiments: -intervals requires -intervals-out or -http (somewhere for the series to go)")
		os.Exit(1)
	}
	if *intervalsOut != "" && *intervals == 0 {
		fmt.Fprintln(os.Stderr, "experiments: -intervals-out requires -intervals N")
		os.Exit(1)
	}
	if *intervals > 0 {
		opts.IntervalEvery = *intervals
		if *intervalsOut != "" {
			intervalsW, err := obs.OpenSink(*intervalsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			defer intervalsW.Close()
			opts.IntervalSink = intervalsW
		}
		fmt.Fprintln(os.Stderr, "experiments: warning: the result cache is bypassed while -intervals is active (interval series cannot be replayed from cached results)")
	}
	var spanLog *obs.SpanLog
	if *spansOut != "" || *httpAddr != "" {
		spanLog = obs.NewSpanLog()
		opts.Spans = spanLog
	}
	if *spansOut != "" {
		spansW, err := obs.OpenSink(*spansOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer spansW.Close()
		spanLog.SetSink(spansW)
		defer func() {
			if serr := spanLog.SinkErr(); serr != nil {
				fmt.Fprintf(os.Stderr, "experiments: warning: -spans sink: %v\n", serr)
			}
		}()
	}

	if *httpAddr != "" {
		opts.Status = &runner.Status{}
		opts.Live = obs.NewManifestLog()
		if *intervals > 0 {
			opts.Intervals = obs.NewIntervalStore(0)
		}
		srv, err := monitor.Start(*httpAddr, monitor.Source{
			Status:    opts.Status,
			Manifests: opts.Live,
			Intervals: opts.Intervals,
			Spans:     spanLog,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: live telemetry on http://%s (/metrics, /progress, /runs, /intervals, /timeline, /debug/pprof)\n", srv.Addr())
	}

	var todo []experiments.Experiment
	if *run == "all" {
		todo = experiments.AllWithExtensions()
	} else {
		e, ok := experiments.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", *run)
			os.Exit(1)
		}
		todo = []experiments.Experiment{e}
	}

	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	for _, e := range todo {
		t0 := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(res)
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(t0).Seconds())
		if *csv != "" {
			for i, tb := range res.Tables {
				name := res.ID
				if len(res.Tables) > 1 {
					name = fmt.Sprintf("%s_%d", res.ID, i)
				}
				path := filepath.Join(*csv, name+".csv")
				content := "# " + strings.ReplaceAll(tb.Title(), "\n", " ") + "\n" + tb.CSV()
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}

	// The scorecard summary joins the runner: line below, so campaign
	// health and reproduction health are read off the same screen.
	if *score {
		card, err := experiments.Score(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: score: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(card.Summary())
		for _, f := range card.HardFailures() {
			fmt.Fprintf(os.Stderr, "experiments: score: hard expectation failed: %s (run `go run ./cmd/reprocheck` for the full scorecard)\n", f)
		}
	}

	jobs := runnerReg.Counter(runner.MetricJobs).Value()
	hits := runnerReg.Counter(runner.MetricCacheHits).Value()
	misses := runnerReg.Counter(runner.MetricCacheMisses).Value()
	// checkpoint_* fields are distinct from the cache_* ones: a
	// checkpoint-served job still simulated its measured region (only the
	// warmup was restored), whereas a cache-served job simulated nothing.
	fmt.Printf("runner: jobs=%d cache_hits=%d cache_misses=%d checkpoint_hits=%d checkpoint_misses=%d checkpoint_restores=%d retries=%d watchdog=%d quarantined=%d cache_quarantined=%d\n",
		jobs, hits, misses,
		runnerReg.Counter(runner.MetricCheckpointHits).Value(),
		runnerReg.Counter(runner.MetricCheckpointMisses).Value(),
		runnerReg.Counter(runner.MetricCheckpointRestores).Value(),
		runnerReg.Counter(runner.MetricRetries).Value(),
		runnerReg.Counter(runner.MetricWatchdogFired).Value(),
		runnerReg.Counter(runner.MetricQuarantined).Value(),
		runnerReg.Counter(runner.MetricCacheQuarantined).Value())

	if manifests != nil {
		f, err := obs.OpenSink(*metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		gitRev := obs.GitDescribe()
		for _, m := range manifests.All() {
			m.Tool = "experiments"
			m.Git = gitRev
			if err := m.WriteJSONL(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
		}
		// One trailing summary manifest records the execution-layer
		// metrics (runner_jobs, runner_cache_hits, queue depth, ...) so
		// cache effectiveness is auditable from the manifest log alone.
		summary := obs.NewManifest(
			obs.RunInfo{Tool: "experiments", Git: gitRev, Workload: "__runner__"},
			&obs.Probes{Reg: runnerReg}, nil, nil)
		if err := summary.WriteJSONL(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d run manifests to %s\n", len(manifests.All())+1, *metricsOut)
	}
}
