// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI). Each experiment is a named runner that sweeps the
// relevant configurations over the workload set and renders the same rows
// or series the paper reports. Runs are parallelized across a worker pool;
// each (config, workload) pair simulates on its own deterministic stream,
// so results are reproducible regardless of scheduling.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"fdp/internal/core"
	"fdp/internal/obs"
	"fdp/internal/runner"
	"fdp/internal/stats"
	"fdp/internal/synth"
)

// Options control run lengths and the workload set. The paper uses 50M
// warmup + 50M measured instructions; the defaults here are scaled down so
// the full suite completes in minutes (see EXPERIMENTS.md for the scaling
// rationale and a -full mode).
type Options struct {
	Warmup    uint64
	Measure   uint64
	Workloads []*synth.Workload
	// Parallel bounds concurrent simulations (defaults to GOMAXPROCS).
	Parallel int

	// Metrics attaches a fresh observability probe set to every run and
	// records a per-run manifest on the resulting stats.Set (parallel to
	// Set.Runs) and, when Manifests is non-nil, into that log as well.
	Metrics bool
	// Manifests optionally collects every run manifest across experiments
	// (concurrency-safe); implies per-run probes like Metrics.
	Manifests *obs.ManifestLog
	// TraceCap, when > 0 together with Metrics, gives each run a
	// ring-buffered pipeline event tracer holding the last TraceCap
	// events; the manifests then also report trace.events/trace.dropped.
	TraceCap int
	// TraceSink, when non-nil, receives each traced run's events as JSONL
	// (one {"run": "config/workload"} header line per run, in completion
	// order; writes are serialized).
	TraceSink io.Writer
	// IntervalEvery, when > 0 together with probes, gives each run an
	// interval time-series recorder snapshotting the cycle-accounting
	// vector every IntervalEvery cycles (bypasses the result cache; see
	// runner.Options).
	IntervalEvery uint64
	// IntervalSink, when non-nil, receives each run's interval records as
	// JSONL at completion (see runner.Options.IntervalSink).
	IntervalSink io.Writer
	// Intervals, when non-nil, receives each run's interval records live
	// as they are snapshotted — the monitor's /intervals source (see
	// runner.Options.Intervals).
	Intervals *obs.IntervalStore
	// Spans, when non-nil, receives every job's lifecycle span timeline —
	// the monitor's /timeline source (see runner.Options.Spans).
	Spans *obs.SpanLog

	// Ctx, when non-nil, cancels pending and in-flight simulations once
	// it is done (simulations poll it; see core.SimulateContext).
	Ctx context.Context
	// Cache, when non-nil, satisfies repeated (config, workload, budget)
	// specs from stored results instead of re-simulating — notably the
	// shared baseline every table and figure re-runs. Bypassed while
	// tracing (see runner.Options.Cache).
	Cache *runner.Cache
	// RunnerReg, when non-nil, receives the scheduler's execution metrics
	// (runner_jobs, runner_cache_hits, runner_queue_depth, ...).
	RunnerReg *obs.Registry
	// Status, when non-nil, receives live job progress updates readable
	// from any goroutine while experiments run (the HTTP monitor's
	// /progress source).
	Status *runner.Status
	// Live, when non-nil, receives each run's manifest as it completes
	// (completion order, so NOT deterministic — the HTTP monitor's
	// /metrics source; implies per-run probes like Metrics). Manifests,
	// by contrast, is filled post-hoc in spec order.
	Live *obs.ManifestLog

	// WatchdogTimeout, when > 0, cancels any simulation making no forward
	// progress for this long (see runner.Options.WatchdogTimeout).
	WatchdogTimeout time.Duration
	// Retry bounds re-execution of transiently failed jobs.
	Retry runner.RetryPolicy
	// KeepGoing quarantines failing jobs (their runs are simply missing
	// from the resulting sets) instead of aborting the whole grid.
	KeepGoing bool
	// Journal, when non-nil, is the crash-safe completion WAL gating
	// cache trust on resume (see runner.Options.Journal).
	Journal *runner.Journal
	// Check enables per-cycle invariant checking in every simulated core.
	Check bool
	// FastForward warms every run up functionally (train predictors and
	// caches architecturally, skip pipeline timing) instead of
	// cycle-accurately. Different warmup semantics — results shift
	// slightly and cache under a distinct identity — but warmup cost
	// drops by roughly the simulated IPC.
	FastForward bool
	// Checkpoint, with FastForward and Cache, pays each distinct warmup
	// once per (workload, training config) and restores the checkpointed
	// post-warmup state for every other grid point (see
	// runner.Options.Checkpoint).
	Checkpoint bool
}

// observed reports whether runs should carry probe sets.
func (o *Options) observed() bool {
	return o.Metrics || o.Manifests != nil || o.Live != nil ||
		(o.TraceCap > 0 && o.TraceSink != nil) ||
		(o.IntervalEvery > 0 && (o.IntervalSink != nil || o.Intervals != nil))
}

// DefaultOptions returns the standard scaled-down evaluation: all 12
// workloads, 200K warmup + 800K measured instructions each.
func DefaultOptions() Options {
	return Options{Warmup: 200_000, Measure: 800_000, Workloads: synth.StandardWorkloads()}
}

// QuickOptions returns a fast smoke-level evaluation: 6 workloads, 50K
// warmup + 200K measured.
func QuickOptions() Options {
	ws, err := synth.Resolve("server_a", "server_b", "client_a", "client_b", "spec_a", "spec_b")
	if err != nil {
		panic(err) // the quick set names standard workloads only
	}
	return Options{Warmup: 50_000, Measure: 200_000, Workloads: ws}
}

// FullOptions returns the heavyweight evaluation: all workloads, 2M warmup
// + 8M measured instructions.
func FullOptions() Options {
	return Options{Warmup: 2_000_000, Measure: 8_000_000, Workloads: synth.StandardWorkloads()}
}

// ParseWorkloads resolves the -workloads / -workload-spec frontend
// flags into a workload suite override: workloads is a comma-separated
// list of standard names and @file.yaml references, specFiles a
// comma-separated list of spec paths. Either may be empty.
func ParseWorkloads(workloads, specFiles string) ([]*synth.Workload, error) {
	return synth.ParseWorkloadFlags(workloads, specFiles, workloads != "")
}

func (o *Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

func (o *Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Result is the rendered output of one experiment.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// String renders the result.
func (r *Result) String() string {
	out := fmt.Sprintf("### %s: %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Runner executes one experiment.
type Runner func(Options) (*Result, error)

// Experiment pairs an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   Runner
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Prefetching limit study (IPC-1-like framework, perfect BTB)", Fig1},
		{"tab1", "BTB capacity gap between academia and industry", Table1},
		{"tab2", "Handling BTB-miss not-taken branches", Table2},
		{"tab3", "FTQ hardware overhead", Table3},
		{"tab4", "Common simulation parameters", Table4},
		{"tab5", "Branch history management policies", Table5},
		{"fig6a", "IPC improvement by instruction prefetching", Fig6a},
		{"fig6b", "Per-trace EIP-128KB improvement vs branch MPKI", Fig6b},
		{"fig7", "PFC benefit vs BTB capacity", Fig7},
		{"fig8", "Branch history management", Fig8},
		{"fig9", "ISO-budget analysis", Fig9},
		{"fig10", "BTB prefetching (SN4L+Dis+BTB)", Fig10},
		{"fig11", "BTB capacity sensitivity", Fig11},
		{"fig12", "Branch direction predictor sensitivity", Fig12},
		{"fig13", "Prediction bandwidth / BTB latency sensitivity", Fig13},
		{"fig14", "FTQ size sensitivity and exposed misses", Fig14},
	}
}

// ByID returns the experiment with the given ID, searching the paper
// artifacts and the extensions.
func ByID(id string) (Experiment, bool) {
	for _, e := range AllWithExtensions() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runGrid simulates every config over every workload through the shared
// run-execution subsystem (internal/runner) and returns one Set per
// config, keyed by config name, with runs in workload order. The first
// failing job cancels the remaining and in-flight ones.
func runGrid(opts Options, configs []core.Config) (map[string]*stats.Set, error) {
	specs := make([]runner.Spec, 0, len(configs)*len(opts.Workloads))
	for _, cfg := range configs {
		for _, wl := range opts.Workloads {
			sp := runner.WorkloadSpec(cfg, wl, opts.Warmup, opts.Measure)
			sp.FFwd = opts.FastForward
			specs = append(specs, sp)
		}
	}
	results, err := runner.Execute(opts.ctx(), specs, runner.Options{
		Parallel:        opts.parallel(),
		Cache:           opts.Cache,
		Observe:         opts.observed(),
		TraceCap:        opts.TraceCap,
		TraceSink:       opts.TraceSink,
		IntervalEvery:   opts.IntervalEvery,
		IntervalSink:    opts.IntervalSink,
		Intervals:       opts.Intervals,
		Spans:           opts.Spans,
		Reg:             opts.RunnerReg,
		Status:          opts.Status,
		Manifests:       opts.Live,
		WatchdogTimeout: opts.WatchdogTimeout,
		Retry:           opts.Retry,
		KeepGoing:       opts.KeepGoing,
		Journal:         opts.Journal,
		Check:           opts.Check,
		Checkpoint:      opts.Checkpoint,
	})
	if err != nil {
		// Under KeepGoing a classified job error means "some jobs were
		// quarantined, the rest completed" — build the sets from what
		// finished. Anything else still aborts the experiment.
		var jerr *runner.Error
		if !(opts.KeepGoing && errors.As(err, &jerr)) {
			return nil, err
		}
	}

	sets := make(map[string]*stats.Set)
	for _, cfg := range configs {
		sets[cfg.Name] = &stats.Set{Config: cfg.Name}
	}
	for i, res := range results {
		if res.Run == nil {
			continue // quarantined under KeepGoing
		}
		set := sets[specs[i].Config.Name]
		set.Add(res.Run)
		if res.Manifest != nil {
			opts.Manifests.Add(res.Manifest)
			set.Manifests = append(set.Manifests, res.Manifest)
		}
	}
	return sets, nil
}

// speedupPct formats a speedup ratio as a percent-improvement string.
func speedupPct(sp float64) string {
	return fmt.Sprintf("%+.1f%%", 100*(sp-1))
}

// sortedNames returns map keys in sorted order (determinism for reports).
func sortedNames(m map[string]*stats.Set) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
