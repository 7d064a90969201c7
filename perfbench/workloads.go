package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fdp/internal/core"
	"fdp/internal/experiments"
	"fdp/internal/obs"
	"fdp/internal/runner"
	"fdp/internal/stats"
	"fdp/internal/synth"
)

// workload is one named batch of simulations. Every workload is a closed
// batch: all of its jobs are submitted at once and at most nproc are in
// flight.
type workload struct {
	name  string
	setup func(seed uint64, tmp string) (*batch, error)
}

// batch is one set-up instance of a workload, ready to execute once.
type batch struct {
	// budget is the instructions one job delivers: warmup + measure.
	budget uint64
	// run executes every job (spans, when non-nil, receives the runner's
	// timeline) and returns a function collecting the per-job results, so
	// that reading them back stays outside the timed interval.
	run func(spans *obs.SpanLog) (collect func() (jobs, error), err error)
	// probe is one representative simulation of the batch, used by the
	// traced run to time single calls and observability overheads.
	probe probe
	// points holds one default-configuration spec per synthetic workload
	// of the batch, re-run cold by the traced run.
	points []runner.Spec
	// genMS is the time set-up spent generating or compiling workloads.
	genMS float64
	close func()
}

// probe is the (configuration, workload) pair of the traced run's
// single-call timings.
type probe struct {
	cfg core.Config
	w   *synth.Workload
}

// defaultPoints is one default-configuration spec per workload.
func defaultPoints(ws []*synth.Workload, warmup, measure uint64) []runner.Spec {
	var ps []runner.Spec
	for _, w := range ws {
		ps = append(ps, runner.WorkloadSpec(core.DefaultConfig(), w, warmup, measure))
	}
	return ps
}

// jobs is the outcome of one batch before checking.
type jobs struct {
	// attempted counts every job submitted; lost counts jobs that ended
	// without a result (an error, or cancellation after another job's
	// error).
	attempted, lost int
	// results holds one entry per distinct result, keyed by spec key.
	results []jobResult
}

type jobResult struct {
	key     string
	run     *stats.Run
	measure uint64
}

// campaignGrids are the experiment grids of the campaign workload, run
// back to back against one result cache: the prefetcher axis (fig6a),
// BTB capacity x PFC (fig7) and the direction predictor (fig12). The
// history-policy grid (fig8) is left out to keep an iteration short
// enough that a run takes the median of several: the CPU time of one
// iteration moves by about an eighth from one to the next on a shared
// host.
var campaignGrids = []string{"fig6a", "fig7", "fig12"}

// ffwdFTQDepths is the FTQ-depth axis of the ffwd_sweep workload (the
// paper's Fig. 14 axis). FTQ depth is a timing-only knob, outside
// runner.Spec.CheckpointKey, so all depths of one workload share one
// fast-forward checkpoint.
var ffwdFTQDepths = []int{2, 4, 8, 12, 16, 24, 32, 48}

// The ffwd_sweep budget: warmup 100x the measured region, so fast-forward,
// the checkpoint codec and checkpoint waits dominate the cycle loop.
const (
	ffwdWarmup  = 2_000_000
	ffwdMeasure = 20_000
)

// workloads stress different layers (README.md gives the full map).
var workloads = []*workload{
	// The cycle loop (~96% of CPU) plus per-job construction, result
	// cache reads and writes, and scheduling, repeated per grid point.
	{name: "campaign", setup: setupCampaign},
	// Fast-forward, snapshot and restore, and checkpoint waits; little
	// cycle loop.
	{name: "ffwd_sweep", setup: setupFFwdSweep},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// quickWorkloads generates the quick experiment workload set with every
// master seed shifted by seed. Naming the set through QuickOptions
// generates the standard workloads once per process, as every
// experiments frontend does.
func quickWorkloads(seed uint64) ([]*synth.Workload, error) {
	byName := make(map[string]*synth.Workload)
	for _, w := range synth.WorkloadsWithSeedOffset(seed) {
		byName[w.Name] = w
	}
	quick := experiments.QuickOptions().Workloads
	ws := make([]*synth.Workload, 0, len(quick))
	for _, q := range quick {
		w, ok := byName[q.Name]
		if !ok {
			return nil, fmt.Errorf("quick workload %q missing from the seeded set", q.Name)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func setupCampaign(seed uint64, tmp string) (*batch, error) {
	genStart := time.Now()
	ws, err := quickWorkloads(seed)
	if err != nil {
		return nil, err
	}
	genMS := msSince(genStart)
	dir, err := os.MkdirTemp(tmp, "campaign-cache-")
	if err != nil {
		return nil, err
	}
	cache, err := runner.NewCache(0, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	opts := experiments.QuickOptions()
	opts.Workloads = ws
	opts.Parallel = nproc
	opts.Cache = cache
	return &batch{
		budget: opts.Warmup + opts.Measure,
		run: func(spans *obs.SpanLog) (func() (jobs, error), error) {
			opts.Spans = spans
			for _, id := range campaignGrids {
				e, ok := experiments.ByID(id)
				if !ok {
					return nil, fmt.Errorf("unknown experiment %q", id)
				}
				// A failed grid leaves jobs without results; they are
				// counted when the results are collected.
				if _, err := e.Run(opts); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: campaign %s: %v\n", id, err)
					break
				}
			}
			return func() (jobs, error) { return readCampaign(cache, dir, opts.Measure) }, nil
		},
		probe:  probe{cfg: core.DefaultConfig(), w: ws[0]},
		points: defaultPoints(ws, opts.Warmup, opts.Measure),
		genMS:  genMS,
		close:  func() { os.RemoveAll(dir) },
	}, nil
}

// readCampaign collects a campaign's results from its on-disk result
// cache (one <spec key>.json file per distinct result, see
// runner.NewCache), through a fresh cache instance so every result is
// read back from disk. Each job looked the cache up exactly once, so
// hits + misses is the job count; a miss that left no entry behind is a
// job that ended without a result.
func readCampaign(cache *runner.Cache, dir string, measure uint64) (jobs, error) {
	hits, misses, _ := cache.Stats()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return jobs{}, err
	}
	var keys []string
	for _, e := range ents {
		if k, ok := strings.CutSuffix(e.Name(), ".json"); ok && !strings.HasPrefix(k, ".") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fresh, err := runner.NewCache(len(keys), dir)
	if err != nil {
		return jobs{}, err
	}
	out := jobs{attempted: int(hits + misses), lost: int(misses) - len(keys)}
	for _, k := range keys {
		run, _, ok := fresh.Get(k, false)
		if !ok {
			return jobs{}, fmt.Errorf("cached result %s unreadable", filepath.Join(dir, k+".json"))
		}
		out.results = append(out.results, jobResult{key: k, run: run, measure: measure})
	}
	return out, nil
}

func setupFFwdSweep(seed uint64, _ string) (*batch, error) {
	genStart := time.Now()
	ws, err := quickWorkloads(seed)
	if err != nil {
		return nil, err
	}
	genMS := msSince(genStart)
	var specs, points []runner.Spec
	for _, w := range ws {
		for _, d := range ffwdFTQDepths {
			cfg := core.DefaultConfig()
			cfg.Name = fmt.Sprintf("ftq%d", d)
			cfg.FTQEntries = d
			sp := runner.WorkloadSpec(cfg, w, ffwdWarmup, ffwdMeasure)
			sp.FFwd = true
			specs = append(specs, sp)
			if d == core.DefaultConfig().FTQEntries {
				points = append(points, sp)
			}
		}
	}
	// A fresh in-memory store per batch: every batch pays its own
	// fast-forwards.
	cache, err := runner.NewCache(0, "")
	if err != nil {
		return nil, err
	}
	b := executeBatch(specs, runner.Options{Parallel: nproc, Cache: cache, Checkpoint: true})
	b.probe = probe{cfg: core.DefaultConfig(), w: ws[0]}
	b.points = points
	b.genMS = genMS
	return b, nil
}

// executeBatch is the batch of specs run by one runner.Execute call.
func executeBatch(specs []runner.Spec, opts runner.Options) *batch {
	// Every spec of a batch has the same budget.
	b := &batch{budget: specs[0].Warmup + specs[0].Measure, close: func() {}}
	b.run = func(spans *obs.SpanLog) (func() (jobs, error), error) {
		opts.Spans = spans
		results, err := runner.Execute(executeCtx, specs, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		return func() (jobs, error) {
			out := jobs{attempted: len(specs)}
			for i, r := range results {
				if r.Run == nil {
					out.lost++
					continue
				}
				out.results = append(out.results, jobResult{key: specs[i].Key(), run: r.Run, measure: specs[i].Measure})
			}
			sort.Slice(out.results, func(i, j int) bool { return out.results[i].key < out.results[j].key })
			return out, nil
		}, nil
	}
	return b
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
