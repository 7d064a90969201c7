package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"fdp/internal/core"
	"fdp/internal/obs"
	"fdp/internal/trace"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrClass
	}{
		{fmt.Errorf("job: %w", ErrPanic), ClassTransient},
		{fmt.Errorf("job: %w", ErrHung), ClassFatal},
		{fmt.Errorf("read: %w", trace.ErrCorrupt), ClassCorruptInput},
		{fmt.Errorf("core: %w", core.ErrInvariant), ClassFatal},
		{errors.New("anything else"), ClassFatal},
		{&Error{Class: ClassTransient, Err: errors.New("x")}, ClassTransient},
		{fmt.Errorf("wrapped: %w", &Error{Class: ClassCorruptInput, Err: errors.New("x")}), ClassCorruptInput},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestErrorWrapping(t *testing.T) {
	inner := fmt.Errorf("boom: %w", ErrPanic)
	e := &Error{Class: ClassTransient, Job: "fdp/server_a", Attempts: 3, Err: inner}
	if !errors.Is(e, ErrPanic) {
		t.Error("Error does not unwrap to its cause")
	}
	msg := e.Error()
	for _, want := range []string{"fdp/server_a", "transient", "3"} {
		if !contains(msg, want) {
			t.Errorf("Error() = %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestBackoffDeterministic: the jitter is a pure function of (seed,
// attempt) — reproducible chaos — and every delay stays within
// [Base/2 * 2^k, Cap].
func TestBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{Attempts: 5, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond}.normalized()
	seed := backoffSeed("00ff00ff00ff00ff" + "0000000000000000000000000000000000000000000000000000000000000000"[:48])
	for retry := 1; retry <= 4; retry++ {
		a := p.Backoff(retry, seed)
		b := p.Backoff(retry, seed)
		if a != b {
			t.Fatalf("retry %d: backoff not deterministic (%v vs %v)", retry, a, b)
		}
		if a <= 0 || a > p.Cap {
			t.Fatalf("retry %d: backoff %v outside (0, %v]", retry, a, p.Cap)
		}
	}
	if p.Backoff(1, seed) == p.Backoff(1, seed^1) {
		t.Error("different seeds produced identical jitter (suspicious)")
	}
}

// TestExecuteRetriesTransientFault: an injected panic on the first
// attempt is classified transient and retried; the job then succeeds and
// its result matches a clean simulation.
func TestExecuteRetriesTransientFault(t *testing.T) {
	specs := smallSpecs(t)[:2]
	var faults atomic.Int32
	st := &Status{}
	reg := obs.NewRegistry()
	results, err := Execute(context.Background(), specs, Options{
		Parallel: 2,
		Reg:      reg,
		Status:   st,
		Retry:    RetryPolicy{Attempts: 3, Base: time.Millisecond, Cap: 2 * time.Millisecond},
		FaultHook: func(ctx context.Context, job, attempt int) error {
			if job == 0 && attempt == 1 {
				faults.Add(1)
				panic("injected transient fault")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if faults.Load() != 1 {
		t.Fatalf("fault injected %d times, want 1", faults.Load())
	}
	if got := reg.Counter(MetricRetries).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricRetries, got)
	}
	if st.Retries.Load() != 1 || st.Panics.Load() != 1 {
		t.Fatalf("status retries=%d panics=%d, want 1/1", st.Retries.Load(), st.Panics.Load())
	}
	for i, r := range results {
		if r.Err != nil || r.Run == nil {
			t.Fatalf("job %d: err=%v run=%v after retry", i, r.Err, r.Run)
		}
	}
}

// TestExecuteRetriesExhausted: a job that fails transiently on every
// attempt is reported with its attempt count and transient class.
func TestExecuteRetriesExhausted(t *testing.T) {
	specs := smallSpecs(t)[:1]
	_, err := Execute(context.Background(), specs, Options{
		Parallel: 1,
		Retry:    RetryPolicy{Attempts: 3, Base: time.Millisecond, Cap: 2 * time.Millisecond},
		FaultHook: func(ctx context.Context, job, attempt int) error {
			panic("always failing")
		},
	})
	var re *Error
	if !errors.As(err, &re) {
		t.Fatalf("Execute error %T %v, want *Error", err, err)
	}
	if re.Class != ClassTransient || re.Attempts != 3 {
		t.Fatalf("error = %+v, want transient after 3 attempts", re)
	}
}

// TestExecuteWatchdogCancelsHang: a job that stops making progress (here:
// blocked before its first cycle) is canceled by the watchdog and fails
// as a fatal hung-job error, not a cancellation casualty.
func TestExecuteWatchdogCancelsHang(t *testing.T) {
	specs := smallSpecs(t)[:2]
	st := &Status{}
	reg := obs.NewRegistry()
	// The deadline must comfortably exceed one heartbeat interval (the
	// cycle loop stamps every 2^14 cycles): under -race a single chunk
	// can take tens of milliseconds, and a too-tight deadline makes the
	// watchdog fire on the *healthy* job as well.
	results, err := Execute(context.Background(), specs, Options{
		Parallel:        2,
		Reg:             reg,
		Status:          st,
		WatchdogTimeout: 400 * time.Millisecond,
		FaultHook: func(ctx context.Context, job, attempt int) error {
			if job == 0 {
				<-ctx.Done() // hang until someone kills us
				return ctx.Err()
			}
			return nil
		},
	})
	if !errors.Is(err, ErrHung) {
		t.Fatalf("Execute error %v, want ErrHung", err)
	}
	var re *Error
	if !errors.As(err, &re) || re.Class != ClassFatal {
		t.Fatalf("hung job not classified fatal: %v", err)
	}
	if got := reg.Counter(MetricWatchdogFired).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricWatchdogFired, got)
	}
	if st.Watchdog.Load() != 1 {
		t.Fatalf("status watchdog = %d, want 1", st.Watchdog.Load())
	}
	if results[0].Err == nil {
		t.Fatal("hung job's result carries no error")
	}
	if snap := st.Snapshot(); len(snap.Jobs) != 0 {
		t.Fatalf("in-flight job table not drained: %+v", snap.Jobs)
	}
}

// TestExecuteWatchdogSparesHealthyRun: a generous deadline never fires on
// jobs that are actually simulating.
func TestExecuteWatchdogSparesHealthyRun(t *testing.T) {
	specs := smallSpecs(t)
	reg := obs.NewRegistry()
	results, err := Execute(context.Background(), specs, Options{
		Parallel:        2,
		Reg:             reg,
		WatchdogTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricWatchdogFired).Value(); got != 0 {
		t.Fatalf("watchdog fired %d times on healthy jobs", got)
	}
	for i, r := range results {
		if r.Run == nil {
			t.Fatalf("job %d has no result", i)
		}
	}
}

// TestExecuteKeepGoing: a terminally failing job is quarantined — its
// Result carries the classified error — while every other job completes;
// the first quarantined error is still reported.
func TestExecuteKeepGoing(t *testing.T) {
	specs := smallSpecs(t)
	st := &Status{}
	reg := obs.NewRegistry()
	results, err := Execute(context.Background(), specs, Options{
		Parallel:  2,
		Reg:       reg,
		Status:    st,
		KeepGoing: true,
		FaultHook: func(ctx context.Context, job, attempt int) error {
			if job == 1 {
				return fmt.Errorf("reading workload: %w", trace.ErrCorrupt)
			}
			return nil
		},
	})
	var re *Error
	if !errors.As(err, &re) || re.Class != ClassCorruptInput {
		t.Fatalf("Execute error %v, want corrupt-input *Error", err)
	}
	for i, r := range results {
		if i == 1 {
			if r.Err == nil || r.Run != nil {
				t.Fatalf("quarantined job 1: err=%v run=%v", r.Err, r.Run)
			}
			continue
		}
		if r.Err != nil || r.Run == nil {
			t.Fatalf("job %d did not complete under keep-going: err=%v", i, r.Err)
		}
	}
	if got := reg.Counter(MetricQuarantined).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricQuarantined, got)
	}
	if st.Quarantined.Load() != 1 {
		t.Fatalf("status quarantined = %d, want 1", st.Quarantined.Load())
	}
	if got := reg.Counter(MetricCanceled).Value(); got != 0 {
		t.Fatalf("keep-going canceled %d jobs", got)
	}
}

// TestExecuteFirstErrorStillDefault: without KeepGoing an injected fatal
// fault aborts the pool (the pre-existing contract is unchanged).
func TestExecuteFirstErrorStillDefault(t *testing.T) {
	specs := smallSpecs(t)
	_, err := Execute(context.Background(), specs, Options{
		Parallel: 1,
		FaultHook: func(ctx context.Context, job, attempt int) error {
			if job == 0 {
				return fmt.Errorf("reading workload: %w", trace.ErrCorrupt)
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("fatal fault did not abort the pool")
	}
}

// TestExecuteJournalGatesCache: with a journal configured, a cached
// result is trusted only for journaled keys — a warm cache with an empty
// journal re-simulates everything.
func TestExecuteJournalGatesCache(t *testing.T) {
	specs := smallSpecs(t)[:2]
	dir := t.TempDir()
	cache, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}

	jr1 := openTestJournal(t, dir+"/run1.wal")
	reg1 := obs.NewRegistry()
	if _, err := Execute(context.Background(), specs, Options{Parallel: 2, Cache: cache, Journal: jr1, Reg: reg1}); err != nil {
		t.Fatal(err)
	}
	if jr1.Len() != len(specs) {
		t.Fatalf("journal has %d keys, want %d", jr1.Len(), len(specs))
	}

	// Same warm cache, fresh empty journal: nothing is trusted.
	jr2 := openTestJournal(t, dir+"/run2.wal")
	reg2 := obs.NewRegistry()
	if _, err := Execute(context.Background(), specs, Options{Parallel: 2, Cache: cache, Journal: jr2, Reg: reg2}); err != nil {
		t.Fatal(err)
	}
	if hits := reg2.Counter(MetricCacheHits).Value(); hits != 0 {
		t.Fatalf("unjournaled cache served %d hits", hits)
	}

	// Same cache with its populated journal: all hits.
	reg3 := obs.NewRegistry()
	if _, err := Execute(context.Background(), specs, Options{Parallel: 2, Cache: cache, Journal: jr2, Reg: reg3}); err != nil {
		t.Fatal(err)
	}
	if hits := reg3.Counter(MetricCacheHits).Value(); hits != uint64(len(specs)) {
		t.Fatalf("journaled resume served %d hits, want %d", hits, len(specs))
	}
}

// TestExecuteJournalResume: the kill -9 resume contract in-process — a
// second campaign over a superset of specs re-executes exactly the
// unjournaled ones.
func TestExecuteJournalResume(t *testing.T) {
	specs := smallSpecs(t)
	dir := t.TempDir()

	c1, _ := NewCache(0, dir+"/cache")
	j1 := openTestJournal(t, dir+"/run.wal")
	if _, err := Execute(context.Background(), specs[:3], Options{Parallel: 2, Cache: c1, Journal: j1}); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	// "New process": fresh cache over the same dir, reopened journal.
	c2, _ := NewCache(0, dir+"/cache")
	j2 := openTestJournal(t, dir+"/run.wal")
	if rec, _ := j2.Recovered(); rec != 3 {
		t.Fatalf("journal replayed %d records, want 3", rec)
	}
	reg := obs.NewRegistry()
	results, err := Execute(context.Background(), specs, Options{Parallel: 2, Cache: c2, Journal: j2, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter(MetricCacheHits).Value(); hits != 3 {
		t.Fatalf("resume served %d hits, want 3", hits)
	}
	if misses := reg.Counter(MetricCacheMisses).Value(); misses != 1 {
		t.Fatalf("resume simulated %d jobs, want 1", misses)
	}
	for i, r := range results {
		if r.Run == nil {
			t.Fatalf("job %d missing after resume", i)
		}
	}
	if j2.Len() != len(specs) {
		t.Fatalf("journal has %d keys after resume, want %d", j2.Len(), len(specs))
	}
}

// TestBackoffGolden pins the jitter stream. The seed and the attempt
// are both avalanche-mixed before combining; the previous linear fold
// (seed ^ retry*gamma) correlated the per-retry streams (with seed 0,
// retry r's successor state is retry r+1's start). These values changing
// silently would un-reproduce every recorded chaos run.
func TestBackoffGolden(t *testing.T) {
	p := RetryPolicy{Attempts: 8, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond}.normalized()
	golden := map[uint64][]time.Duration{
		0:                               {9531820, 18170038, 27157327, 66494007, 74031684, 47289282},
		backoffSeed("00ff00ff00ff00ff"): {6119165, 11282630, 31760126, 54478556, 43317190, 40908209},
	}
	for seed, want := range golden {
		for i, w := range want {
			if got := p.Backoff(i+1, seed); got != w {
				t.Errorf("seed %d retry %d: backoff %d, want %d", seed, i+1, got, w)
			}
		}
	}
	// Once the exponential step saturates at Cap, consecutive attempts
	// draw from the same range — distinct draws are pure jitter quality.
	seen := map[time.Duration]int{}
	for r := 4; r <= 8; r++ { // step capped at 80ms from retry 4 on
		seen[p.Backoff(r, 0)]++
	}
	for d, n := range seen {
		if n > 1 {
			t.Errorf("capped attempts repeated jitter value %v ×%d", d, n)
		}
	}
}

// TestExecuteKeepGoingWatchdogQuarantine is the keep-going × watchdog ×
// journal interplay contract: a job hung past the watchdog deadline is
// quarantined exactly once — one errored slot in the results, one
// quarantine count — and its key must NOT enter the completion journal,
// so a resume re-simulates it instead of trusting a cache entry that
// never existed.
func TestExecuteKeepGoingWatchdogQuarantine(t *testing.T) {
	specs := smallSpecs(t)
	dir := t.TempDir()
	cache, err := NewCache(0, dir+"/cache")
	if err != nil {
		t.Fatal(err)
	}
	jr := openTestJournal(t, dir+"/run.wal")
	st := &Status{}
	reg := obs.NewRegistry()
	results, err := Execute(context.Background(), specs, Options{
		Parallel:        2,
		Cache:           cache,
		Journal:         jr,
		Status:          st,
		Reg:             reg,
		KeepGoing:       true,
		WatchdogTimeout: 400 * time.Millisecond,
		FaultHook: func(ctx context.Context, job, attempt int) error {
			if job == 0 {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		},
	})
	var re *Error
	if !errors.As(err, &re) || !errors.Is(err, ErrHung) {
		t.Fatalf("want a classified hung-job error, got %v", err)
	}
	hung := 0
	for i, r := range results {
		if i == 0 {
			if r.Err == nil || r.Run != nil {
				t.Fatalf("hung job: err=%v run=%v", r.Err, r.Run)
			}
			hung++
			continue
		}
		if r.Err != nil || r.Run == nil {
			t.Fatalf("healthy job %d did not survive keep-going: %v", i, r.Err)
		}
	}
	if hung != 1 {
		t.Fatalf("hung job appears %d times in results, want exactly 1", hung)
	}
	if got := reg.Counter(MetricQuarantined).Value(); got != 1 {
		t.Fatalf("runner_jobs_quarantined = %d, want exactly 1", got)
	}
	if st.Quarantined.Load() != 1 || st.Watchdog.Load() != 1 {
		t.Fatalf("status quarantined=%d watchdog=%d, want 1/1", st.Quarantined.Load(), st.Watchdog.Load())
	}
	if jr.Done(specs[0].Key()) {
		t.Fatal("journal marked the quarantined job's key done — a resume would trust a result that was never produced")
	}
	if jr.Len() != len(specs)-1 {
		t.Fatalf("journal has %d keys, want %d", jr.Len(), len(specs)-1)
	}

	// Resume contract: the quarantined spec re-simulates (no cache trust),
	// the healthy ones replay from cache.
	reg2 := obs.NewRegistry()
	if _, err := Execute(context.Background(), specs, Options{Parallel: 2, Cache: cache, Journal: jr, Reg: reg2}); err != nil {
		t.Fatal(err)
	}
	if hits := reg2.Counter(MetricCacheHits).Value(); hits != uint64(len(specs)-1) {
		t.Fatalf("resume served %d hits, want %d", hits, len(specs)-1)
	}
	if misses := reg2.Counter(MetricCacheMisses).Value(); misses != 1 {
		t.Fatalf("resume re-simulated %d jobs, want exactly 1 (the quarantined one)", misses)
	}
}
