// Command sweep runs one-dimensional parameter sweeps and emits CSV, for
// ad-hoc sensitivity studies beyond the canned experiments.
//
// Usage:
//
//	sweep -param ftq -values 2,4,8,16,24,32
//	sweep -param btb -values 1024,4096,16384 -workloads server_a,server_b
//	sweep -param resolve -values 8,14,20,30 -pfc=false
//	sweep -param ftq -values 2,32 -parallel 8 -cache ./fdp-cache
//
// Output: one CSV row per (value, workload) plus a geomean summary row per
// value, on stdout. Rows appear in sweep order regardless of -parallel.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"fdp/internal/core"
	"fdp/internal/monitor"
	"fdp/internal/obs"
	"fdp/internal/runner"
	"fdp/internal/stats"
	"fdp/internal/synth"
)

// params maps sweepable parameter names to config mutators.
var params = map[string]func(*core.Config, int){
	"ftq":      func(c *core.Config, v int) { c.FTQEntries = v },
	"btb":      func(c *core.Config, v int) { c.BTBEntries = v },
	"predict":  func(c *core.Config, v int) { c.PredictWidth = v },
	"fetch":    func(c *core.Config, v int) { c.FetchWidth = v },
	"resolve":  func(c *core.Config, v int) { c.ResolveLatency = v },
	"btblat":   func(c *core.Config, v int) { c.BTBLatency = v },
	"mshrs":    func(c *core.Config, v int) { c.MSHRs = v },
	"l1i":      func(c *core.Config, v int) { c.L1IBytes = v },
	"ras":      func(c *core.Config, v int) { c.RASDepth = v },
	"taken":    func(c *core.Config, v int) { c.MaxTakenPerCycle = v },
	"memlat":   func(c *core.Config, v int) { c.Lat.Mem = uint64(v) },
	"l1btb":    func(c *core.Config, v int) { c.L1BTBEntries = v; c.L1BTBWays = 4; c.L2BTBPenalty = c.BTBLatency },
	"decodeq":  func(c *core.Config, v int) { c.DecodeQueueCap = v },
	"pfdegree": func(c *core.Config, v int) { c.PrefetchDegree = v },
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

// run executes the whole sweep: it exists (separately from main) so tests
// can drive the real flag parsing and CSV rendering in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		param      = fs.String("param", "ftq", "parameter to sweep: "+paramNames())
		valuesStr  = fs.String("values", "2,4,8,16,24,32", "comma-separated values")
		wlStr      = fs.String("workloads", "server_a,client_a,spec_a", "comma-separated workloads: standard names, @file.yaml spec references, or 'all'")
		wlSpec     = fs.String("workload-spec", "", "workload spec file(s) to sweep, comma-separated (shorthand for @file entries in -workloads)")
		pfc        = fs.Bool("pfc", true, "post-fetch correction")
		warmup     = fs.Uint64("warmup", 100_000, "warmup instructions")
		measure    = fs.Uint64("measure", 400_000, "measured instructions")
		ffwd       = fs.Bool("ffwd", false, "functional fast-forward warmup: train predictors/caches architecturally without timing the pipeline (different warmup semantics, much faster)")
		checkpoint = fs.Bool("checkpoint", false, "with -ffwd, warm up once per (workload, training config) and restore the checkpoint for every other sweep point")
		parallel   = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir   = fs.String("cache", "", "reuse results from this on-disk cache directory")

		check     = fs.Bool("check", false, "enable per-cycle invariant checking")
		watchdog  = fs.Duration("watchdog", 0, "cancel any simulation making no forward progress for this long (0 = off)")
		retries   = fs.Int("retries", 0, "retries for transiently failed jobs (panics), with exponential backoff")
		keepGoing = fs.Bool("keep-going", false, "skip failed points (missing CSV rows) and keep sweeping")

		metricsOut   = fs.String("metrics", "", "write per-run observability manifests as JSONL to this file ('-' for stdout)")
		traceOut     = fs.String("trace", "", "write pipeline event traces as JSONL to this file ('-' for stdout)")
		traceCap     = fs.Int("trace-cap", 1<<14, "event-trace ring capacity (last N events per run)")
		intervals    = fs.Uint64("intervals", 0, "snapshot each run's cycle-accounting time-series every N cycles (0 = off)")
		intervalsOut = fs.String("intervals-out", "", "write interval records as JSONL to this file ('-' for stdout)")
		spansOut     = fs.String("spans", "", "write the runner's job lifecycle span timeline as JSONL to this file ('-' for stdout)")
		httpAddr     = fs.String("http", "", "serve live telemetry on this address (/metrics, /progress, /runs, /intervals, /timeline, /debug/pprof)")
		pprofOut     = fs.String("pprof", "", "write a CPU profile of the sweep to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checkpoint && !*ffwd {
		return fmt.Errorf("-checkpoint requires -ffwd (checkpoints capture fast-forward warmup state)")
	}

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var metricsW, traceW, intervalsW io.WriteCloser
	if *metricsOut != "" {
		w, err := obs.OpenSink(*metricsOut)
		if err != nil {
			return err
		}
		metricsW = w
		defer metricsW.Close()
	}
	if *traceOut != "" {
		if *traceCap <= 0 {
			return fmt.Errorf("-trace-cap must be positive (got %d)", *traceCap)
		}
		w, err := obs.OpenSink(*traceOut)
		if err != nil {
			return err
		}
		traceW = w
		defer traceW.Close()
	}
	if *intervals > 0 && *intervalsOut == "" && *httpAddr == "" {
		return fmt.Errorf("-intervals requires -intervals-out or -http (somewhere for the series to go)")
	}
	if *intervalsOut != "" {
		if *intervals == 0 {
			return fmt.Errorf("-intervals-out requires -intervals N")
		}
		w, err := obs.OpenSink(*intervalsOut)
		if err != nil {
			return err
		}
		intervalsW = w
		defer intervalsW.Close()
	}
	if *cacheDir != "" && (traceW != nil || *intervals > 0) {
		fmt.Fprintln(os.Stderr, "sweep: warning: -cache is bypassed while -trace or -intervals is active (non-replayable side outputs)")
	}
	gitRev := ""
	if metricsW != nil {
		gitRev = obs.GitDescribe()
	}

	mutate, ok := params[*param]
	if !ok {
		return fmt.Errorf("unknown parameter %q (have %s)", *param, paramNames())
	}
	var values []int
	for _, v := range strings.Split(*valuesStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return fmt.Errorf("bad value %q", v)
		}
		values = append(values, n)
	}
	wlExplicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workloads" {
			wlExplicit = true
		}
	})
	workloads, err := synth.ParseWorkloadFlags(*wlStr, *wlSpec, wlExplicit)
	if err != nil {
		return err
	}

	var cache *runner.Cache
	if *cacheDir != "" {
		cache, err = runner.NewCache(runner.DefaultCacheCapacity, *cacheDir)
		if err != nil {
			return err
		}
	}
	if *checkpoint && cache == nil {
		// Memory-only store: the sweep still pays each warmup once, the
		// checkpoints just don't survive the process.
		cache, err = runner.NewCache(runner.DefaultCacheCapacity, "")
		if err != nil {
			return err
		}
	}

	observed := metricsW != nil || traceW != nil || *intervals > 0 || *httpAddr != ""
	ropts := runner.Options{
		Parallel:        *parallel,
		Cache:           cache,
		Observe:         observed,
		Check:           *check,
		WatchdogTimeout: *watchdog,
		KeepGoing:       *keepGoing,
		Checkpoint:      *checkpoint,
	}
	if *retries > 0 {
		ropts.Retry = runner.RetryPolicy{Attempts: *retries + 1}
	}
	if traceW != nil {
		ropts.TraceCap = *traceCap
		ropts.TraceSink = traceW
	}
	if *intervals > 0 {
		ropts.IntervalEvery = *intervals
		ropts.IntervalSink = intervalsW
	}
	var spanLog *obs.SpanLog
	if *spansOut != "" || *httpAddr != "" {
		spanLog = obs.NewSpanLog()
		ropts.Spans = spanLog
	}
	if *spansOut != "" {
		w, err := obs.OpenSink(*spansOut)
		if err != nil {
			return err
		}
		defer w.Close()
		spanLog.SetSink(w)
		defer func() {
			if serr := spanLog.SinkErr(); serr != nil {
				fmt.Fprintf(os.Stderr, "sweep: warning: -spans sink: %v\n", serr)
			}
		}()
	}
	if *httpAddr != "" {
		ropts.Status = &runner.Status{}
		ropts.Manifests = obs.NewManifestLog()
		if *intervals > 0 {
			ropts.Intervals = obs.NewIntervalStore(0)
		}
		srv, err := monitor.Start(*httpAddr, monitor.Source{
			Status:    ropts.Status,
			Manifests: ropts.Manifests,
			Intervals: ropts.Intervals,
			Spans:     spanLog,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sweep: live telemetry on http://%s (/metrics, /progress, /runs, /intervals, /timeline, /debug/pprof)\n", srv.Addr())
	}

	specs := make([]runner.Spec, 0, len(values)*len(workloads))
	for _, v := range values {
		for _, w := range workloads {
			cfg := core.DefaultConfig()
			cfg.PFC = *pfc
			mutate(&cfg, v)
			cfg.Name = fmt.Sprintf("%s=%d", *param, v)
			sp := runner.WorkloadSpec(cfg, w, *warmup, *measure)
			sp.FFwd = *ffwd
			specs = append(specs, sp)
		}
	}
	results, err := runner.Execute(context.Background(), specs, ropts)
	if err != nil {
		// Under -keep-going a classified job error means "some points were
		// quarantined, the rest completed" — emit the rows that finished.
		var jerr *runner.Error
		if !(*keepGoing && errors.As(err, &jerr)) {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep: warning: %v\n", err)
	}

	fmt.Fprintf(stdout, "param,value,workload,ipc,branch_mpki,l1i_mpki,starv_pki,tag_pki,pfc_resteers\n")
	i := 0
	for _, v := range values {
		runs := make([]*stats.Run, 0, len(workloads))
		for _, w := range workloads {
			res := results[i]
			i++
			r := res.Run
			if r == nil {
				fmt.Fprintf(os.Stderr, "sweep: %s=%d/%s: quarantined: %v\n", *param, v, w.Name, res.Err)
				continue
			}
			if metricsW != nil && res.Manifest != nil {
				m := res.Manifest
				m.Tool = "sweep"
				m.Git = gitRev
				if err := m.WriteJSONL(metricsW); err != nil {
					return err
				}
			}
			runs = append(runs, r)
			fmt.Fprintf(stdout, "%s,%d,%s,%.4f,%.3f,%.3f,%.2f,%.2f,%d\n",
				*param, v, w.Name, r.IPC(), r.BranchMPKI(), r.L1IMPKI(),
				r.StarvationPKI(), r.TagProbesPKI(), r.PFCResteers)
		}
		fmt.Fprintf(stdout, "%s,%d,GEOMEAN,%.4f,,,,,\n", *param, v, stats.GeoMeanIPC(runs))
	}
	return nil
}

func paramNames() string {
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	// Stable order for help text.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return strings.Join(names, "|")
}
