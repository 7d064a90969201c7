package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"fdp/internal/core"
	"fdp/internal/obs"
	"fdp/internal/runner"
	"fdp/internal/stats"
	"fdp/internal/synth"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestFoldSpans folds a hand-written timeline of two batches run back to
// back on two workers, round-tripped through JSONL.
func TestFoldSpans(t *testing.T) {
	spans := []obs.Span{
		// Batch 1, submitted at 0: three cold jobs on two workers.
		{Run: "a/w", Job: 0, Kind: obs.SpanQueued, Start: 0, Dur: 0},
		{Run: "b/w", Job: 1, Kind: obs.SpanQueued, Start: 0, Dur: 0},
		{Run: "c/w", Job: 2, Kind: obs.SpanQueued, Start: 0, Dur: 60},
		{Run: "a/w", Job: 0, Attempt: 1, Kind: obs.SpanSimulate, Start: 0, Dur: 100},
		{Run: "b/w", Job: 1, Attempt: 1, Kind: obs.SpanSimulate, Start: 0, Dur: 50},
		{Run: "b/w", Job: 1, Attempt: 1, Kind: obs.SpanCacheWrite, Start: 50, Dur: 10},
		{Run: "c/w", Job: 2, Attempt: 1, Kind: obs.SpanSimulate, Start: 60, Dur: 140},
		{Run: "a/w", Job: 0, Attempt: 1, Kind: obs.SpanCacheWrite, Start: 100, Dur: 10},
		{Run: "c/w", Job: 2, Attempt: 1, Kind: obs.SpanCacheWrite, Start: 200, Dur: 10},
		// Batch 2, submitted at 1000: a cache hit and a restored job.
		{Run: "a/w", Job: 0, Kind: obs.SpanQueued, Start: 1000, Dur: 0},
		{Run: "d/w", Job: 1, Kind: obs.SpanQueued, Start: 1000, Dur: 0},
		{Run: "a/w", Job: 0, Kind: obs.SpanCacheHit, Start: 1005},
		{Run: "d/w", Job: 1, Kind: obs.SpanCkptWait, Start: 1000, Dur: 30},
		{Run: "d/w", Job: 1, Attempt: 1, Kind: obs.SpanRestore, Start: 1030, Dur: 20},
		{Run: "d/w", Job: 1, Attempt: 1, Kind: obs.SpanSimulate, Start: 1050, Dur: 50},
	}
	var buf bytes.Buffer
	if err := obs.WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	timeline, err := obs.ReadSpanJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := foldSpans(timeline, 2)

	if f.jobs != 5 || f.simulated != 4 || f.restored != 1 || f.cacheHits != 1 {
		t.Errorf("jobs %d simulated %d restored %d hits %d, want 5 4 1 1", f.jobs, f.simulated, f.restored, f.cacheHits)
	}
	for kind, want := range map[obs.SpanKind]float64{
		obs.SpanSimulate:   340e-6,
		obs.SpanCacheWrite: 30e-6,
		obs.SpanRestore:    20e-6,
		obs.SpanCkptWait:   30e-6,
		obs.SpanFFwd:       0,
	} {
		if !near(f.total[kind], want) {
			t.Errorf("%s total %g s, want %g", kind, f.total[kind], want)
		}
	}
	// Simulated jobs took 100, 50, 140 and 50 us.
	if !near(f.simulateP50MS, 0.075) || !near(f.simulateP90MS, 0.14) {
		t.Errorf("simulate p50 %g p90 %g ms, want 0.075 0.14", f.simulateP50MS, f.simulateP90MS)
	}
	// Batch 1: the job ending at 60 hands its worker the last job, so the
	// first worker idles at 110 and the last result lands at 210. Batch 2
	// has as many jobs as workers: the hit frees its worker at 1005 with
	// nothing left to start, and the restored job ends at 1100.
	if !near(f.tail, 100e-6+95e-6) {
		t.Errorf("tail %g s, want %g", f.tail, 195e-6)
	}
	if !near(f.extent, 210e-6+100e-6) {
		t.Errorf("extent %g s, want %g", f.extent, 310e-6)
	}
	busy := 370e-6 + 20e-6 // simulate + cache_write, then restore; ckpt_wait is waiting
	if !near(f.busy, busy) || !near(f.busyFrac(), busy/(2*310e-6)) {
		t.Errorf("busy %g s frac %g, want %g s", f.busy, f.busyFrac(), busy)
	}
	if f.busyFrac() > 1 {
		t.Errorf("busy fraction %g exceeds 1", f.busyFrac())
	}
}

// goodRun is a result that passes every check for a measured budget of
// 1000 instructions.
func goodRun() *stats.Run {
	r := &stats.Run{Cycles: 800, Instructions: 1000}
	r.Acct[obs.AcctDelivering] = 700
	r.Acct[obs.AcctFTQEmpty] = 100
	return r
}

func TestFailuresCounted(t *testing.T) {
	js := jobs{attempted: 4, results: []jobResult{
		{key: "a", run: goodRun(), measure: 1000},
		{key: "b", run: goodRun(), measure: 1000},
	}}
	if out := checkJobs(js); out.failed != 0 || out.attempted != 4 {
		t.Fatalf("clean batch: failed %d of %d, want 0 of 4", out.failed, out.attempted)
	}

	broken := goodRun()
	broken.Acct[obs.AcctFlushRecovery]++ // cycles no longer conserved
	js.results[1].run = broken
	out := checkJobs(js)
	if out.failed != 1 || len(out.byKey) != 1 {
		t.Errorf("conservation violation: failed %d, kept %d, want 1 and 1", out.failed, len(out.byKey))
	}

	js.lost = 1
	if out := checkJobs(js); out.failed != 2 {
		t.Errorf("violation plus a lost job: failed %d, want 2", out.failed)
	}
}

func TestCheckRun(t *testing.T) {
	short := goodRun()
	short.Instructions = 999
	noCycles := &stats.Run{Instructions: 1000}
	for name, r := range map[string]*stats.Run{"short": short, "zero cycles": noCycles, "nil": nil} {
		if checkRun(r, 1000) == nil {
			t.Errorf("%s: passed the checks", name)
		}
	}
	if err := checkRun(goodRun(), 1000); err != nil {
		t.Errorf("good run: %v", err)
	}
}

// TestDigestStable executes a small batch twice in one process; the
// digests must match, and must change when a result does.
func TestDigestStable(t *testing.T) {
	w := synth.ByName("server_a")
	var specs []runner.Spec
	for _, ftq := range []int{4, 24} {
		cfg := core.DefaultConfig()
		cfg.FTQEntries = ftq
		specs = append(specs, runner.WorkloadSpec(cfg, w, 5_000, 20_000))
	}
	var digests []string
	for i := 0; i < 2; i++ {
		out, err := execute(executeBatch(specs, runner.Options{Parallel: 2}), nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || out.attempted != 2 {
			t.Fatalf("failed %d of %d jobs", out.failed, out.attempted)
		}
		digests = append(digests, out.digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("digest changed between identical runs: %s then %s", digests[0], digests[1])
	}
	out, err := execute(executeBatch(specs[:1], runner.Options{Parallel: 1}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.digest == digests[0] {
		t.Error("digest of a different batch is the same")
	}
}

const tracesText = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   fdp/internal/bpred.(*History).InsertTaken (inline)
             fdp/internal/core.(*Core).specInsertTaken
             fdp/internal/core.(*Core).predictStage
             fdp/internal/core.(*Core).cycle
-----------+-------------------------------------------------------
      10ms   fdp/internal/core.(*Core).dispatchStage
             fdp/internal/core.(*Core).cycle
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`

func TestFoldTraces(t *testing.T) {
	p, err := foldTraces(strings.NewReader(tracesText))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]metric{}
	for _, m := range append(p.stageMetrics(), p.packageMetrics()...) {
		got[m.Name] = m
	}
	for name, want := range map[string]float64{
		"core.predict_cpu_frac":  0.6,
		"core.dispatch_cpu_frac": 0.2,
		"bpred.cpu_frac":         0.6,
		"core.cpu_frac":          0.2,
		"go.runtime_cpu_frac":    0.2,
		"go.gc_cpu_frac":         0.2,
	} {
		if m := got[name]; !near(m.Value, want) || m.Missing {
			t.Errorf("%s = %g (missing %v), want %g", name, m.Value, m.Missing, want)
		}
	}
	for _, name := range []string{"core.fill_cpu_frac", "btb.cpu_frac", "ckpt.cpu_frac"} {
		if !got[name].Missing {
			t.Errorf("%s absent from the profile but not reported missing", name)
		}
	}
	if sum := p.flatShare(); !near(sum, 1) {
		t.Errorf("package shares sum to %g, want 1 (every sample is in a reported package)", sum)
	}
	if _, err := foldTraces(strings.NewReader("File: x\n")); err == nil {
		t.Error("empty profile folded without error")
	}
}

// TestMetricNames checks every metric name the benchmark declares, and
// every name the folds and the statistics emit, against the allowed
// character set, and that each emitted name is declared.
func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	declared := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("declared metric %q has a character outside [A-Za-z0-9_.-]", m.Name)
		}
		if declared[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		declared[m.Name] = true
	}

	var rep report
	p, err := foldTraces(strings.NewReader(tracesText))
	if err != nil {
		t.Fatal(err)
	}
	rep.ms = append(p.stageMetrics(), p.packageMetrics()...)
	simStats(map[string]*stats.Run{"a": goodRun()}, &rep)
	for _, m := range rep.ms {
		if !valid.MatchString(m.Name) || !declared[m.Name] {
			t.Errorf("emitted metric %q is invalid or not declared in BENCHMARK.json", m.Name)
		}
	}
}
