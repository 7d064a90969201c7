// Command chaos is the seeded fault-injection gate behind `make
// chaos-check`: it proves the hardened execution path end to end by
// actually injecting the failures the runner claims to survive.
//
// Phase 1 (in-process faults) runs a small simulation grid with a panic, a
// hang, and a corrupt disk-cache entry planted by faultkit, and asserts
// the retry policy absorbs the panic, the watchdog kills the hang, the
// corrupt entry is quarantined (not served, not silently missed), and
// keep-going still completes every healthy job.
//
// Phase 2 (crash resume) re-execs itself, kills the child with os.Exit(9)
// mid-campaign — the kill -9 model — garbles the journal tail, then
// resumes over the same cache directory and asserts exactly the journaled
// jobs are trusted from the cache and only the unfinished ones re-run.
//
// Exit status 0 means every assertion held. On failure the working
// directory is kept for inspection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"fdp/internal/core"
	"fdp/internal/faultkit"
	"fdp/internal/obs"
	"fdp/internal/runner"
	"fdp/internal/synth"
)

// crashAfter is how many jobs the crash-phase child completes (and
// journals) before the injected os.Exit kills it.
const crashAfter = 2

func main() {
	var (
		seed  = flag.Uint64("seed", 0xC4A05, "fault-plan seed (chaos runs replay exactly from their seed)")
		dir   = flag.String("dir", "", "working directory (default: a temp dir, removed on success)")
		child = flag.Bool("crash-child", false, "internal: run the crash-phase campaign and die mid-run")
	)
	flag.Parse()

	if *child {
		runCrashChild(*dir)
		// runCrashChild only returns if the planned kill never fired.
		fmt.Fprintln(os.Stderr, "chaos: crash child completed without dying (exit fault never fired)")
		os.Exit(3)
	}

	root := *dir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "fdp-chaos-")
		if err != nil {
			fail("%v", err)
		}
	}
	fmt.Printf("chaos: seed=%#x dir=%s\n", *seed, root)

	phase1(root, *seed)
	phase2(root, *seed)

	if *dir == "" {
		os.RemoveAll(root)
	}
	fmt.Println("chaos: OK")
}

// chaosSpecs is the shared campaign grid: both phases and the crash child
// must build the identical spec list, since fault plans and journal
// contents are keyed by job index and spec hash.
func chaosSpecs() []runner.Spec {
	ws, err := synth.Resolve("server_a", "client_a")
	if err != nil {
		fail("%v", err)
	}
	var specs []runner.Spec
	for _, cfg := range []core.Config{core.DefaultConfig(), core.BaselineConfig()} {
		for _, w := range ws {
			specs = append(specs, runner.WorkloadSpec(cfg, w, 10_000, 40_000))
		}
	}
	return specs
}

// phase1 injects a panic, a hang, and a corrupt cache entry into one
// keep-going Execute and asserts each is survived the advertised way.
func phase1(root string, seed uint64) {
	fmt.Println("chaos: phase 1: in-process faults (panic, hang, corrupt cache entry)")
	specs := chaosSpecs()
	cacheDir := filepath.Join(root, "phase1-cache")
	cache, err := runner.NewCache(runner.DefaultCacheCapacity, cacheDir)
	if err != nil {
		fail("%v", err)
	}

	// Plant a corrupt cache entry for the last spec: run it once to get a
	// real on-disk entry, then tear it in half. The campaign must
	// quarantine it (rename to *.corrupt) and re-simulate, not serve it.
	last := len(specs) - 1
	if _, err := runner.Execute(context.Background(), specs[last:], runner.Options{Cache: cache}); err != nil {
		fail("seeding cache entry: %v", err)
	}
	entry := filepath.Join(cacheDir, specs[last].Key()+".json")
	if err := faultkit.TruncateFrac(entry, 0.5); err != nil {
		fail("corrupting cache entry: %v", err)
	}
	// A fresh cache over the same directory, so the torn entry is read
	// back from disk instead of the in-memory copy.
	cache, err = runner.NewCache(runner.DefaultCacheCapacity, cacheDir)
	if err != nil {
		fail("%v", err)
	}

	plan := faultkit.NewPlan()
	plan.Set(0, faultkit.Fault{Kind: faultkit.Panic, Attempts: 1}) // transient: retry absorbs it
	plan.Set(1, faultkit.Fault{Kind: faultkit.Hang})               // watchdog food: fatal, quarantined

	reg := obs.NewRegistry()
	results, err := runner.Execute(context.Background(), specs, runner.Options{
		Parallel:        2,
		Cache:           cache,
		Reg:             reg,
		Check:           true,
		WatchdogTimeout: 250 * time.Millisecond,
		Retry:           runner.RetryPolicy{Attempts: 3, Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond},
		KeepGoing:       true,
		FaultHook:       plan.Hook(),
	})

	var jerr *runner.Error
	if !errors.As(err, &jerr) {
		fail("phase 1: Execute returned %v, want a classified *runner.Error for the quarantined hang", err)
	}
	if !errors.Is(err, runner.ErrHung) {
		fail("phase 1: quarantined error %v does not wrap ErrHung", err)
	}
	for i, res := range results {
		if i == 1 {
			if res.Run != nil {
				fail("phase 1: hung job %d produced a run", i)
			}
			continue
		}
		if res.Run == nil {
			fail("phase 1: healthy job %d has no run (err: %v)", i, res.Err)
		}
	}
	assertCounter(reg, runner.MetricRetries, 1)
	assertCounter(reg, runner.MetricWatchdogFired, 1)
	assertCounter(reg, runner.MetricQuarantined, 1)
	assertCounter(reg, runner.MetricCacheQuarantined, 1)
	if got := plan.Injected(faultkit.Panic); got != 1 {
		fail("phase 1: injected %d panics, want 1", got)
	}
	if got := plan.Injected(faultkit.Hang); got != 1 {
		fail("phase 1: injected %d hangs, want 1", got)
	}
	if _, err := os.Stat(entry + ".corrupt"); err != nil {
		fail("phase 1: corrupt cache entry was not quarantined to *.corrupt: %v", err)
	}
	fmt.Println("chaos: phase 1: OK (panic retried, hang watchdogged, corrupt entry quarantined)")
}

// phase2 kills a child mid-campaign, garbles the journal tail, and
// asserts the resume trusts exactly the journaled results.
func phase2(root string, seed uint64) {
	fmt.Println("chaos: phase 2: crash resume (kill -9 mid-campaign, garbled journal tail)")
	dir := filepath.Join(root, "phase2")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail("%v", err)
	}
	exe, err := os.Executable()
	if err != nil {
		fail("%v", err)
	}
	cmd := exec.Command(exe, "-crash-child", "-dir", dir, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	var xerr *exec.ExitError
	if !errors.As(err, &xerr) || xerr.ExitCode() != 9 {
		fail("phase 2: crash child exited %v, want exit status 9", err)
	}
	fmt.Printf("chaos: phase 2: child died with exit status 9 after %d journaled jobs\n", crashAfter)

	journalPath := filepath.Join(dir, "journal.wal")
	if err := faultkit.AppendGarbage(journalPath, seed, 37); err != nil {
		fail("garbling journal tail: %v", err)
	}

	specs := chaosSpecs()
	cache, err := runner.NewCache(runner.DefaultCacheCapacity, dir)
	if err != nil {
		fail("%v", err)
	}
	journal, err := runner.OpenJournal(journalPath)
	if err != nil {
		fail("reopening garbled journal: %v", err)
	}
	defer journal.Close()
	records, truncated := journal.Recovered()
	if records != crashAfter {
		fail("phase 2: journal recovered %d records, want %d", records, crashAfter)
	}
	if truncated == 0 {
		fail("phase 2: journal recovery truncated nothing despite the garbled tail")
	}
	fmt.Printf("chaos: phase 2: journal recovered %d records, truncated %d garbage bytes\n", records, truncated)

	reg := obs.NewRegistry()
	results, err := runner.Execute(context.Background(), specs, runner.Options{
		Cache:   cache,
		Journal: journal,
		Reg:     reg,
	})
	if err != nil {
		fail("phase 2: resume failed: %v", err)
	}
	for i, res := range results {
		if res.Run == nil {
			fail("phase 2: resumed job %d has no run", i)
		}
		if (i < crashAfter) != res.CacheHit {
			fail("phase 2: job %d cache hit = %v, want %v (journal gates cache trust)",
				i, res.CacheHit, i < crashAfter)
		}
	}
	assertCounter(reg, runner.MetricCacheHits, crashAfter)
	assertCounter(reg, runner.MetricCacheMisses, uint64(len(specs)-crashAfter))
	if journal.Len() != len(specs) {
		fail("phase 2: journal holds %d keys after resume, want %d", journal.Len(), len(specs))
	}
	fmt.Printf("chaos: phase 2: OK (resume re-ran only the %d unjournaled jobs)\n", len(specs)-crashAfter)
}

// runCrashChild runs the campaign with a journal and dies via an injected
// os.Exit(9) when the third job starts — the first two results are cached
// and journaled (both fsync'd) by then.
func runCrashChild(dir string) {
	cache, err := runner.NewCache(runner.DefaultCacheCapacity, dir)
	if err != nil {
		fail("%v", err)
	}
	journal, err := runner.OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		fail("%v", err)
	}
	plan := faultkit.NewPlan()
	plan.Set(crashAfter, faultkit.Fault{Kind: faultkit.Exit, Code: 9})
	// Parallel: 1 makes the execution order exactly the spec order, so the
	// kill lands after precisely crashAfter journaled completions.
	_, _ = runner.Execute(context.Background(), chaosSpecs(), runner.Options{
		Parallel:  1,
		Cache:     cache,
		Journal:   journal,
		FaultHook: plan.Hook(),
	})
}

func assertCounter(reg *obs.Registry, name string, want uint64) {
	if got := reg.Counter(name).Value(); got != want {
		fail("%s = %d, want %d", name, got, want)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "chaos: FAIL: "+format+"\n", args...)
	os.Exit(1)
}
