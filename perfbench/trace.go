package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"fdp/internal/obs"
	"fdp/internal/runner"
	"fdp/internal/stats"
)

// runTraced is the per-layer run. It executes the workload's batch once
// untraced, as a reference, then once with the runner's span timeline
// streamed to JSONL and a CPU profile recording; folds both; times single
// public calls on one machine built from the workload; replays the
// workload's oracle stream through the structure APIs; measures what
// observability costs; and re-runs one point per workload cold, for the
// fast-forward bias and the restore-versus-cold check.
func runTraced(w *workload, seed uint64, tmp string, rep *report) (result, error) {
	res := result{Correct: true}
	var gens []float64
	for i := 0; i < setupReps; i++ {
		b, err := w.setup(seed, tmp)
		if err != nil {
			return result{}, err
		}
		gens = append(gens, b.genMS)
		b.close()
	}

	runtime.GC()
	b, err := w.setup(seed, tmp)
	if err != nil {
		return result{}, err
	}
	plain, err := execute(b, nil)
	b.close()
	if err != nil {
		return result{}, err
	}

	runtime.GC()
	b, err = w.setup(seed, tmp)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	traced, timeline, prof, allocMB, err := executeTraced(b, tmp)
	if err != nil {
		return result{}, err
	}
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	if traced.digest != plain.digest {
		fmt.Fprintf(os.Stderr, "perfbench: %s: traced digest %s differs from untraced %s\n", w.name, traced.digest, plain.digest)
		res.Correct = false
	}

	fold := foldSpans(timeline, nproc)
	// The folds must agree with the untraced measurement: workers cannot
	// be busy longer than they existed, and flat shares cannot exceed the
	// whole profile.
	if limit := float64(nproc) * traced.wall; fold.busy > limit {
		fmt.Fprintf(os.Stderr, "perfbench: busy span time %.3f s exceeds parallel x wall %.3f s\n", fold.busy, limit)
		res.Correct = false
	}
	if sum := prof.flatShare(); sum > 1+1e-9 {
		fmt.Fprintf(os.Stderr, "perfbench: per-package CPU shares sum to %.4f > 1\n", sum)
		res.Correct = false
	}
	rep.add("runner.simulate_s", "s", "host", fold.total[obs.SpanSimulate])
	rep.add("runner.ffwd_s", "s", "host", fold.total[obs.SpanFFwd])
	rep.add("runner.restore_s", "s", "host", fold.total[obs.SpanRestore])
	rep.add("runner.ckpt_wait_s", "s", "host", fold.total[obs.SpanCkptWait])
	rep.add("runner.ckpt_restore_frac", "frac", "host", frac(fold.restored, fold.simulated)).Base = fmt.Sprintf("%d simulated jobs", fold.simulated)
	rep.add("runner.cache_write_s", "s", "host", fold.total[obs.SpanCacheWrite])
	rep.add("runner.cache_hit_frac", "frac", "host", frac(fold.cacheHits, fold.jobs)).Base = fmt.Sprintf("%d jobs", fold.jobs)
	rep.add("runner.simulate_p50_ms", "ms", "host", fold.simulateP50MS).Base = fmt.Sprintf("%d jobs", fold.simulated)
	rep.add("runner.simulate_p90_ms", "ms", "host", fold.simulateP90MS).Base = fmt.Sprintf("%d jobs", fold.simulated)
	rep.add("runner.busy_frac", "frac", "host", fold.busyFrac()).Base = fmt.Sprintf("parallel %d x %.3f s timeline", fold.parallel, fold.extent)
	rep.add("runner.tail_s", "s", "host", fold.tail)

	if err := timeMachine(b.probe, rep); err != nil {
		return result{}, err
	}
	rep.ms = append(rep.ms, prof.stageMetrics()...)
	rep.add("synth.generate_ms", "ms", "host", median(gens))
	if err := replay(b.probe.w, rep); err != nil {
		return result{}, err
	}
	rep.ms = append(rep.ms, prof.packageMetrics()...)
	rep.add("go.alloc_mb", "MB", "host", allocMB)
	rep.add("bench.profile_missing", "count", "host", float64(prof.missing()))

	if err := overheads(b.probe, rep); err != nil {
		return result{}, err
	}
	rep.add("bench.trace_overhead_frac", "frac", "host", traced.wall/plain.wall-1)

	simStats(traced.byKey, rep)
	bias, mismatches, err := coldPoints(b.points, traced.byKey)
	if err != nil {
		return result{}, err
	}
	if mismatches > 0 {
		res.Correct = false
	}
	rep.add("core.ffwd_ipc_bias_pct", "%", "sim", bias).Base = fmt.Sprintf("%d points", len(b.points))
	fmt.Printf("workload %s seed %d: traced run, %d jobs, parallel %d\n", w.name, seed, traced.attempted, nproc)
	fmt.Printf("digest %s\n", traced.digest)
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// executeTraced executes the batch with the span timeline streamed to a
// JSONL file and a CPU profile recording, and reads both back.
func executeTraced(b *batch, tmp string) (outcome, []obs.Span, profile, float64, error) {
	spanPath := filepath.Join(tmp, "spans.jsonl")
	sf, err := os.Create(spanPath)
	if err != nil {
		return outcome{}, nil, profile{}, 0, err
	}
	defer sf.Close()
	profPath := filepath.Join(tmp, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return outcome{}, nil, profile{}, 0, err
	}
	defer pf.Close()

	spans := obs.NewSpanLog()
	spans.SetSink(sf)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(pf); err != nil {
		return outcome{}, nil, profile{}, 0, err
	}
	out, err := execute(b, spans)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return outcome{}, nil, profile{}, 0, err
	}
	if err := spans.SinkErr(); err != nil {
		return outcome{}, nil, profile{}, 0, fmt.Errorf("span sink: %w", err)
	}
	if err := sf.Close(); err != nil {
		return outcome{}, nil, profile{}, 0, err
	}
	if err := pf.Close(); err != nil {
		return outcome{}, nil, profile{}, 0, err
	}
	f, err := os.Open(spanPath)
	if err != nil {
		return outcome{}, nil, profile{}, 0, err
	}
	defer f.Close()
	timeline, err := obs.ReadSpanJSONL(f)
	if err != nil {
		return outcome{}, nil, profile{}, 0, fmt.Errorf("reading spans: %w", err)
	}
	prof, err := foldProfileFile(profPath, tmp)
	if err != nil {
		return outcome{}, nil, profile{}, 0, err
	}
	allocMB := float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	return out, timeline, prof, allocMB, nil
}

// foldProfileFile folds a CPU profile with the toolchain's pprof, which
// prints every sampled stack with its sampled time.
func foldProfileFile(path, tmp string) (profile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmp)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return profile{}, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return foldTraces(bytes.NewReader(out))
}

// simStats reports the simulated statistics aggregated over the batch's
// distinct results: ratios of sums, so long jobs weigh more.
func simStats(runs map[string]*stats.Run, rep *report) {
	var sum stats.Run
	for _, r := range runs {
		sum.Cycles += r.Cycles
		sum.Instructions += r.Instructions
		for i, v := range r.Acct {
			sum.Acct[i] += v
		}
		sum.L1IMisses += r.L1IMisses
		sum.Mispredictions += r.Mispredictions
		sum.BTBLookups += r.BTBLookups
		sum.BTBHits += r.BTBHits
		sum.PrefetchIssued += r.PrefetchIssued
		sum.PrefetchUseful += r.PrefetchUseful
		sum.PFCResteers += r.PFCResteers
		sum.PFCWrong += r.PFCWrong
	}
	cycles := fmt.Sprintf("%d cycles", sum.Cycles)
	insts := fmt.Sprintf("%d instructions", sum.Instructions)
	rep.add("core.ipc", "inst/cycle", "sim", sum.IPC()).Base = fmt.Sprintf("%d results", len(runs))
	rep.add("core.acct.l1i_miss_starved_frac", "frac", "sim", sum.AcctShare(obs.AcctL1IMissStarved)).Base = cycles
	rep.add("core.acct.resteer_recovery_frac", "frac", "sim", sum.AcctShare(obs.AcctResteerRecovery)).Base = cycles
	rep.add("core.acct.flush_recovery_frac", "frac", "sim", sum.AcctShare(obs.AcctFlushRecovery)).Base = cycles
	rep.add("core.acct.ftq_empty_frac", "frac", "sim", sum.AcctShare(obs.AcctFTQEmpty)).Base = cycles
	rep.add("cache.l1i_mpki", "1/kinst", "sim", sum.L1IMPKI()).Base = insts
	rep.add("bpred.branch_mpki", "1/kinst", "sim", sum.BranchMPKI()).Base = insts
	rep.add("btb.hit_frac", "frac", "sim", sum.BTBHitRate()).Base = fmt.Sprintf("%d lookups", sum.BTBLookups)
	rep.add("prefetch.useful_frac", "frac", "sim", frac(int(sum.PrefetchUseful), int(sum.PrefetchIssued))).Base = fmt.Sprintf("%d prefetches issued", sum.PrefetchIssued)
	rep.add("core.pfc_wrong_frac", "frac", "sim", frac(int(sum.PFCWrong), int(sum.PFCResteers))).Base = fmt.Sprintf("%d PFC resteers", sum.PFCResteers)
}

// coldPoints runs each point twice from cold, with cycle-accurate and
// with fast-forward warmup, through runner.Execute with no cache and no
// checkpoint. It returns the fast-forward IPC bias against cycle-accurate
// warmup, in percent, and counts results that differ from the batch's
// result of the same spec key: for ffwd_sweep that is every point's
// restored twin, which must be byte-identical to the cold run.
func coldPoints(points []runner.Spec, batchRuns map[string]*stats.Run) (float64, int, error) {
	var specs []runner.Spec
	for _, p := range points {
		ca, ff := p, p
		ca.FFwd, ff.FFwd = false, true
		specs = append(specs, ca, ff)
	}
	results, err := runner.Execute(executeCtx, specs, runner.Options{Parallel: nproc})
	if err != nil {
		return 0, 0, fmt.Errorf("cold points: %w", err)
	}
	var ca, ff stats.Run
	mismatches := 0
	for i, r := range results {
		if err := checkRun(r.Run, specs[i].Measure); err != nil {
			return 0, 0, fmt.Errorf("cold point %s/%s: %v", specs[i].Config.Name, specs[i].Workload, err)
		}
		sum := &ca
		if specs[i].FFwd {
			sum = &ff
		}
		sum.Cycles += r.Run.Cycles
		sum.Instructions += r.Run.Instructions
		if twin, ok := batchRuns[specs[i].Key()]; ok {
			a, aerr := json.Marshal(r.Run)
			b, berr := json.Marshal(twin)
			if aerr != nil || berr != nil || !bytes.Equal(a, b) {
				fmt.Fprintf(os.Stderr, "perfbench: cold %s/%s (ffwd %v) differs from its batch twin\n",
					specs[i].Config.Name, specs[i].Workload, specs[i].FFwd)
				mismatches++
			} else {
				fmt.Printf("cold %s/%s (ffwd %v) matches its batch twin\n", specs[i].Config.Name, specs[i].Workload, specs[i].FFwd)
			}
		}
	}
	return 100 * (ff.IPC()/ca.IPC() - 1), mismatches, nil
}

// frac is n/d, or 0 when d is 0 (the printed base then shows the empty
// denominator).
func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
