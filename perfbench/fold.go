package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"fdp/internal/obs"
)

// spanFold is the runner's span timeline folded into per-kind totals,
// job percentiles, utilization and tail.
type spanFold struct {
	parallel int
	// total is the summed duration of each span kind, in seconds.
	total map[obs.SpanKind]float64
	// jobs counts queued jobs; simulated counts jobs with a simulate
	// span, restored those with a restore span, cacheHits those served
	// from the result cache.
	jobs, simulated, restored, cacheHits int
	simulateP50MS, simulateP90MS         float64
	// busy is the summed time workers spent working (restore, ffwd,
	// simulate, cache_write; not waiting in ckpt_wait), extent the summed
	// length of the timeline's batches, tail the summed time from the
	// first worker slot left idle with no job to start until the last
	// result of each batch — all in seconds.
	busy, extent, tail float64
}

// busyFrac is the share of the parallel workers' time spent busy.
func (f spanFold) busyFrac() float64 {
	if f.extent == 0 {
		return 0
	}
	return f.busy / (float64(f.parallel) * f.extent)
}

// spanJob is one job's place on the timeline, in microseconds: when its
// last span ended, and its simulate time.
type spanJob struct {
	done, simulate int64
	simulated      bool
}

// foldSpans folds a timeline of one or more runner.Execute batches run
// back to back. Every job of a batch has its queued span start at the
// batch's submission time, which is how the batches are told apart; job
// indices restart in each batch.
func foldSpans(spans []obs.Span, parallel int) spanFold {
	f := spanFold{parallel: parallel, total: make(map[obs.SpanKind]float64)}
	var starts []int64
	seen := map[int64]bool{}
	for _, sp := range spans {
		if sp.Kind == obs.SpanQueued && !seen[sp.Start] {
			seen[sp.Start] = true
			starts = append(starts, sp.Start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	batchOf := func(t int64) int {
		return sort.Search(len(starts), func(i int) bool { return starts[i] > t }) - 1
	}

	type jobID struct{ batch, job int }
	jobs := map[jobID]*spanJob{}
	for _, sp := range spans {
		bi := batchOf(sp.Start)
		if bi < 0 {
			continue // emitted before any batch was submitted
		}
		id := jobID{bi, sp.Job}
		j := jobs[id]
		if j == nil {
			j = &spanJob{}
			jobs[id] = j
		}
		end := sp.Start + sp.Dur
		if end > j.done {
			j.done = end
		}
		f.total[sp.Kind] += float64(sp.Dur) / 1e6
		switch sp.Kind {
		case obs.SpanCacheHit:
			f.cacheHits++
		case obs.SpanRestore:
			f.restored++
			f.busy += float64(sp.Dur) / 1e6
		case obs.SpanSimulate:
			j.simulate += sp.Dur
			j.simulated = true
			f.busy += float64(sp.Dur) / 1e6
		case obs.SpanFFwd, obs.SpanCacheWrite:
			f.busy += float64(sp.Dur) / 1e6
		}
	}

	byBatch := make([][]*spanJob, len(starts))
	var simMS []float64
	for id, j := range jobs {
		byBatch[id.batch] = append(byBatch[id.batch], j)
		if j.simulated {
			simMS = append(simMS, float64(j.simulate)/1e3)
		}
	}
	f.jobs = len(jobs)
	f.simulated = len(simMS)
	if len(simMS) > 0 {
		f.simulateP50MS = median(simMS)
		f.simulateP90MS = percentile(simMS, 0.9)
	}
	for bi, js := range byBatch {
		dones := make([]int64, len(js))
		for i, j := range js {
			dones[i] = j.done
		}
		sort.Slice(dones, func(i, k int) bool { return dones[i] < dones[k] })
		lastDone := dones[len(dones)-1]
		// The first len-parallel completions each hand their worker the
		// next job of the backlog; the one after them finds nothing left
		// to start. With fewer jobs than workers a worker idles from the
		// start.
		firstIdle := starts[bi]
		if n := len(dones) - parallel; n >= 0 {
			firstIdle = dones[n]
		}
		f.tail += float64(lastDone-firstIdle) / 1e6
		f.extent += float64(lastDone-starts[bi]) / 1e6
	}
	return f
}

// percentile is the nearest-rank p-quantile of xs (0 < p <= 1).
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// profile is a CPU profile folded into flat time per package,
// cumulative time per core stage, and garbage-collector time.
type profile struct {
	total float64 // sampled seconds
	flat  map[string]float64
	stage map[string]float64
	gc    float64
}

// profPackages are the packages whose flat CPU share is reported, by
// metric prefix; go.runtime is the Go runtime itself.
var profPackages = []struct{ metric, prefix string }{
	{"core", "fdp/internal/core."},
	{"bpred", "fdp/internal/bpred."},
	{"btb", "fdp/internal/btb."},
	{"cache", "fdp/internal/cache."},
	{"ftq", "fdp/internal/ftq."},
	{"prefetch", "fdp/internal/prefetch."},
	{"synth", "fdp/internal/synth."},
	{"program", "fdp/internal/program."},
	{"ckpt", "fdp/internal/ckpt."},
	{"runner", "fdp/internal/runner."},
	{"go.runtime", "runtime."},
}

// profStages are the cycle-loop stages whose cumulative CPU share is
// reported: time in the stage function and everything it calls.
var profStages = []struct{ metric, fn string }{
	{"predict", "fdp/internal/core.(*Core).predictStage"},
	{"dispatch", "fdp/internal/core.(*Core).dispatchStage"},
	{"fill", "fdp/internal/core.(*Core).fillStage"},
	{"fetch", "fdp/internal/core.(*Core).fetchStage"},
}

// foldTraces folds the output of `go tool pprof -traces`: blocks
// separated by dashed lines, each a sampled time followed by the stack,
// leaf first.
func foldTraces(r io.Reader) (profile, error) {
	p := profile{flat: map[string]float64{}, stage: map[string]float64{}}
	var (
		val   float64
		stack []string
	)
	flush := func() {
		if len(stack) == 0 {
			return
		}
		p.total += val
		for _, pk := range profPackages {
			if strings.HasPrefix(stack[0], pk.prefix) {
				p.flat[pk.metric] += val
				break
			}
		}
		gc := false
		for _, st := range profStages {
			for _, fn := range stack {
				if fn == st.fn {
					p.stage[st.metric] += val
					break
				}
			}
		}
		for _, fn := range stack {
			if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
				gc = true
			}
		}
		if gc {
			p.gc += val
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		if !strings.HasPrefix(line, " ") {
			continue
		}
		fields := strings.Fields(line)
		// A stack's first line carries the sample value; the others are
		// indented past the value column.
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return profile{}, fmt.Errorf("pprof traces: sample value %q: %v", fields[0], err)
			}
			val = d.Seconds()
			fields = fields[1:]
		}
		if len(fields) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return profile{}, err
	}
	if p.total == 0 {
		return profile{}, fmt.Errorf("pprof traces: no samples")
	}
	return p, nil
}

func (p profile) share(v float64, name string) metric {
	m := metric{Name: name, Unit: "frac", Domain: "host", Value: v / p.total,
		Base: fmt.Sprintf("%.2f s sampled", p.total)}
	m.Missing = v == 0
	return m
}

// flatShare is the summed flat share of the reported packages.
func (p profile) flatShare() float64 {
	sum := 0.0
	for _, v := range p.flat {
		sum += v
	}
	return sum / p.total
}

// stageMetrics are the cumulative CPU shares of the cycle-loop stages.
func (p profile) stageMetrics() []metric {
	var ms []metric
	for _, st := range profStages {
		ms = append(ms, p.share(p.stage[st.metric], "core."+st.metric+"_cpu_frac"))
	}
	return ms
}

// packageMetrics are the flat CPU shares per package plus the garbage
// collector's cumulative share.
func (p profile) packageMetrics() []metric {
	var ms []metric
	for _, pk := range profPackages {
		name := pk.metric + ".cpu_frac"
		if pk.metric == "go.runtime" {
			name = "go.runtime_cpu_frac"
		}
		ms = append(ms, p.share(p.flat[pk.metric], name))
	}
	return append(ms, p.share(p.gc, "go.gc_cpu_frac"))
}

// missing counts the stages and packages absent from the profile.
func (p profile) missing() int {
	n := 0
	for _, m := range append(p.stageMetrics(), p.packageMetrics()...) {
		if m.Missing {
			n++
		}
	}
	return n
}
