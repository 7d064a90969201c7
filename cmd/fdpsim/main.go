// Command fdpsim runs one frontend configuration on one or more workloads
// and prints the measured statistics.
//
// Usage:
//
//	fdpsim [flags]
//	fdpsim -workload server_a -ftq 24 -pfc
//	fdpsim -workload all -baseline -parallel 4 -cache ./fdp-cache
//	fdpsim -replay trace.fdpt.gz
//	fdpsim -workload server_a -metrics manifest.json -trace events.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"fdp/internal/core"
	"fdp/internal/obs"
	"fdp/internal/runner"
	"fdp/internal/stats"
	"fdp/internal/synth"
	"fdp/internal/trace"
)

func main() {
	var (
		workload     = flag.String("workload", "server_a", "comma-separated workload list: standard names, @file.yaml spec references, or 'all'")
		workloadSpec = flag.String("workload-spec", "", "workload spec file(s) to simulate, comma-separated (shorthand for -workload @file; combines with an explicit -workload)")
		replayFile   = flag.String("replay", "", "simulate a trace file instead of a synthetic workload")
		baseline     = flag.Bool("baseline", false, "use the no-FDP/no-prefetch baseline configuration")
		ftqEntries   = flag.Int("ftq", 0, "override FTQ entries (0 = config default)")
		btbEntries   = flag.Int("btb", 0, "override BTB entries")
		pfc          = flag.Bool("pfc", true, "enable post-fetch correction")
		dir          = flag.String("dir", "", "direction predictor: tage-9kb|tage-18kb|tage-36kb|gshare-8kb|perceptron-8kb|tage-sc-l-24kb|tage-sc-l-64kb|perfect")
		hist         = flag.String("hist", "thr", "history policy: thr|ghr-nofix|ghr-fix|ideal")
		prefetcher   = flag.String("prefetcher", "", "dedicated prefetcher: nl1|fnl+mma|djolt|eip-128kb|eip-27kb|sn4l+dis|rdip")
		btbPref      = flag.Bool("btb-prefetch", false, "enable BTB prefetching at fill pre-decode")
		l1btb        = flag.Int("l1btb", 0, "enable the two-level BTB extension with this many L1 entries")
		timeline     = flag.Bool("timeline", false, "print a per-workload IPC sparkline (10K-instruction windows)")
		warmup       = flag.Uint64("warmup", 200_000, "warmup instructions")
		measure      = flag.Uint64("measure", 800_000, "measured instructions")
		ffwd         = flag.Bool("ffwd", false, "functional fast-forward warmup: train predictors/caches architecturally without timing the pipeline (different warmup semantics, much faster)")
		checkpoint   = flag.Bool("checkpoint", false, "with -ffwd, reuse post-warmup state checkpoints across runs (persisted in the -cache directory when set)")
		parallel     = flag.Int("parallel", 0, "concurrent simulations with -workload all (0 = GOMAXPROCS)")
		cacheDir     = flag.String("cache", "", "reuse results from this on-disk cache directory (synthetic workloads only)")

		check     = flag.Bool("check", false, "enable per-cycle invariant checking")
		watchdog  = flag.Duration("watchdog", 0, "cancel any simulation making no forward progress for this long (0 = off)")
		retries   = flag.Int("retries", 0, "retries for transiently failed jobs (panics), with exponential backoff")
		keepGoing = flag.Bool("keep-going", false, "report failed workloads and keep running the rest")

		metricsOut   = flag.String("metrics", "", "write per-run observability manifests (JSONL; '-' for stdout)")
		traceOut     = flag.String("trace", "", "write the pipeline event trace as JSONL to this file ('-' for stdout)")
		traceCap     = flag.Int("trace-cap", 1<<16, "event-trace ring capacity (last N events per run)")
		intervals    = flag.Uint64("intervals", 0, "snapshot the cycle-accounting time-series every N cycles (0 = off)")
		intervalsOut = flag.String("intervals-out", "", "write interval records as JSONL to this file ('-' for stdout)")
		spansOut     = flag.String("spans", "", "write the runner's job lifecycle span timeline as JSONL to this file ('-' for stdout; synthetic workloads only)")
		pprofOut     = flag.String("pprof", "", "write a CPU profile of the simulation to this file")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	if *baseline {
		cfg = core.BaselineConfig()
	}
	if *ftqEntries > 0 {
		cfg.FTQEntries = *ftqEntries
	}
	if *btbEntries > 0 {
		cfg.BTBEntries = *btbEntries
	}
	cfg.PFC = *pfc && !*baseline
	if *dir != "" {
		cfg.Dir = core.DirKind(*dir)
	}
	switch *hist {
	case "thr":
		cfg.HistPolicy = core.HistTHR
	case "ghr-nofix":
		cfg.HistPolicy, cfg.BTBAllocPolicy = core.HistGHRNoFix, core.AllocAll
	case "ghr-fix":
		cfg.HistPolicy, cfg.BTBAllocPolicy = core.HistGHRFix, core.AllocAll
	case "ideal":
		cfg.HistPolicy = core.HistIdeal
	default:
		fatal("unknown history policy %q", *hist)
	}
	cfg.Prefetcher = *prefetcher
	cfg.BTBPrefetch = *btbPref
	if *l1btb > 0 {
		cfg.L1BTBEntries = *l1btb
		cfg.L1BTBWays = 4
		cfg.L2BTBPenalty = cfg.BTBLatency
	}
	cfg.Name = "custom"
	if *baseline {
		cfg.Name = "baseline"
	}

	if *checkpoint && !*ffwd {
		fatal("-checkpoint requires -ffwd (checkpoints capture fast-forward warmup state)")
	}

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("%v", err)
		}
		defer pprof.StopCPUProfile()
	}

	var metricsW, traceW, intervalsW io.WriteCloser
	if *metricsOut != "" {
		metricsW = createOut(*metricsOut)
		defer metricsW.Close()
	}
	if *traceOut != "" {
		// -trace used to be the trace-replay input flag; refuse to clobber a
		// trace file handed to it by muscle memory.
		if strings.HasSuffix(*traceOut, ".fdpt") || strings.HasSuffix(*traceOut, ".fdpt.gz") {
			fatal("-trace now writes a pipeline event trace (JSONL); to simulate from %s use -replay", *traceOut)
		}
		if *traceCap <= 0 {
			fatal("-trace-cap must be positive (got %d)", *traceCap)
		}
		traceW = createOut(*traceOut)
		defer traceW.Close()
	}
	if *intervals > 0 && *intervalsOut == "" {
		fatal("-intervals requires -intervals-out")
	}
	if *intervalsOut != "" {
		if *intervals == 0 {
			fatal("-intervals-out requires -intervals N")
		}
		intervalsW = createOut(*intervalsOut)
		defer intervalsW.Close()
	}
	if *cacheDir != "" && (traceW != nil || intervalsW != nil) {
		fmt.Fprintln(os.Stderr, "fdpsim: warning: -cache is bypassed while -trace or -intervals is active (non-replayable side outputs)")
	}
	observed := metricsW != nil || traceW != nil || intervalsW != nil
	gitRev := ""
	if metricsW != nil {
		gitRev = obs.GitDescribe()
	}

	t := stats.NewTable("fdpsim results",
		"workload", "IPC", "branch MPKI", "L1I MPKI", "starv/KI", "tag/KI", "PFC resteers", "BTB hit%")
	var timelines []string
	report := func(name string, r *stats.Run) {
		t.AddRow(name, r.IPC(), r.BranchMPKI(), r.L1IMPKI(), r.StarvationPKI(),
			r.TagProbesPKI(), r.PFCResteers, 100*r.BTBHitRate())
		if *timeline {
			timelines = append(timelines, fmt.Sprintf("%-10s %s", name, stats.Sparkline(r.WindowIPC)))
		}
	}

	// simulate runs one workload oracle, records the run, and drains the
	// observability outputs.
	simulate := func(oracle core.Oracle, name, class string, seed uint64) {
		var p *obs.Probes
		if observed {
			p = obs.NewProbes()
			if traceW != nil {
				p.EnableTrace(*traceCap)
			}
			if intervalsW != nil {
				p.EnableIntervals(*intervals)
			}
		}
		r, err := core.SimulateOptions(context.Background(), cfg, oracle, name, *warmup, *measure,
			core.SimOptions{Probes: p, Check: *check, FastForward: *ffwd})
		if err != nil {
			fatal("%s: %v", name, err)
		}
		r.Class = class
		report(name, r)
		if metricsW != nil {
			m := core.Manifest(cfg, r, p, seed, *warmup, *measure)
			m.Tool = "fdpsim"
			m.Git = gitRev
			m.FFwd = *ffwd
			if err := m.WriteJSONL(metricsW); err != nil {
				fatal("writing manifest: %v", err)
			}
		}
		if traceW != nil {
			if err := obs.WriteRunTrace(traceW, cfg.Name+"/"+name, p.Tracer); err != nil {
				fatal("writing trace: %v", err)
			}
		}
		if intervalsW != nil {
			if err := obs.WriteRunIntervals(intervalsW, cfg.Name+"/"+name,
				p.Intervals.Every(), p.Intervals.Records()); err != nil {
				fatal("writing intervals: %v", err)
			}
		}
	}

	if *replayFile != "" {
		f, err := os.Open(*replayFile)
		if err != nil {
			fatal("%v", err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("trace %s: %s/%s, %d instructions, image %dKB\n",
			*replayFile, tr.Header.Name, tr.Header.Class, tr.Header.Instructions,
			tr.Image().Bytes()/1024)
		simulate(tr.NewStream(), tr.Header.Name, tr.Header.Class, tr.Header.Seed)
		fmt.Print(t)
		return
	}

	workloadExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workload" {
			workloadExplicit = true
		}
	})
	workloads, err := synth.ParseWorkloadFlags(*workload, *workloadSpec, workloadExplicit)
	if err != nil {
		fatal("%v", err)
	}
	var cache *runner.Cache
	if *cacheDir != "" {
		cache, err = runner.NewCache(runner.DefaultCacheCapacity, *cacheDir)
		if err != nil {
			fatal("%v", err)
		}
	}
	if *checkpoint && cache == nil {
		// Memory-only store: warmup is still shared across this
		// invocation's workloads, it just doesn't survive the process.
		cache, err = runner.NewCache(runner.DefaultCacheCapacity, "")
		if err != nil {
			fatal("%v", err)
		}
	}
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
	if intervalsW != nil {
		ropts.IntervalEvery = *intervals
		ropts.IntervalSink = intervalsW
	}
	if *spansOut != "" {
		spansW := createOut(*spansOut)
		defer spansW.Close()
		spanLog := obs.NewSpanLog()
		spanLog.SetSink(spansW)
		ropts.Spans = spanLog
		defer func() {
			if serr := spanLog.SinkErr(); serr != nil {
				fmt.Fprintf(os.Stderr, "fdpsim: warning: -spans sink: %v\n", serr)
			}
		}()
	}
	specs := make([]runner.Spec, 0, len(workloads))
	for _, w := range workloads {
		sp := runner.WorkloadSpec(cfg, w, *warmup, *measure)
		sp.FFwd = *ffwd
		specs = append(specs, sp)
	}
	results, err := runner.Execute(context.Background(), specs, ropts)
	if err != nil {
		// Under -keep-going a classified job error means "some workloads
		// were quarantined, the rest completed" — report what finished.
		var jerr *runner.Error
		if !(*keepGoing && errors.As(err, &jerr)) {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "fdpsim: warning: %v\n", err)
	}
	for i, res := range results {
		if res.Run == nil {
			fmt.Fprintf(os.Stderr, "fdpsim: %s: quarantined: %v\n", workloads[i].Name, res.Err)
			continue
		}
		report(workloads[i].Name, res.Run)
		if metricsW != nil && res.Manifest != nil {
			m := res.Manifest
			m.Tool = "fdpsim"
			m.Git = gitRev
			if err := m.WriteJSONL(metricsW); err != nil {
				fatal("writing manifest: %v", err)
			}
		}
	}
	fmt.Print(t)
	for _, tl := range timelines {
		fmt.Println(tl)
	}
}

// createOut opens path for writing ("-" means stdout).
func createOut(path string) io.WriteCloser {
	w, err := obs.OpenSink(path)
	if err != nil {
		fatal("%v", err)
	}
	return w
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "fdpsim: "+format+"\n", args...)
	os.Exit(1)
}
