package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"fdp/internal/core"
	"fdp/internal/obs"
	"fdp/internal/stats"
)

// Options control one Execute call.
type Options struct {
	// Parallel bounds concurrent simulations (non-positive = GOMAXPROCS).
	Parallel int
	// Cache, when non-nil, satisfies repeated specs from stored results
	// and records fresh ones. It is bypassed whenever CacheBypassed()
	// reports true: tracing and interval recording change the observable
	// manifest (trace.* / interval.* counters) and their side-channel
	// output cannot be replayed from a cached result.
	Cache *Cache
	// Observe attaches a fresh probe set to every simulated run and
	// returns a per-run manifest on its Result.
	Observe bool
	// TraceCap, when > 0 together with Observe, gives each run a
	// ring-buffered pipeline event tracer holding the last TraceCap
	// events.
	TraceCap int
	// TraceSink, when non-nil, receives each traced run's events as JSONL
	// (one {"run": "config/workload"} header per run, in completion
	// order; writes are serialized).
	TraceSink io.Writer
	// IntervalEvery, when > 0 together with Observe, gives each run an
	// interval time-series recorder snapshotting the cycle-accounting
	// vector every IntervalEvery cycles.
	IntervalEvery uint64
	// IntervalSink, when non-nil, receives each run's interval records as
	// JSONL (one {"run": ..., "every": ...} header per run, in completion
	// order; writes are serialized).
	IntervalSink io.Writer
	// Reg, when non-nil, receives the runner metrics (runner_jobs,
	// runner_cache_hits, runner_queue_depth, ...). Unlike a per-run
	// registry it is shared across the pool; the scheduler serializes its
	// updates.
	Reg *obs.Registry
	// Status, when non-nil, receives lock-free live progress updates
	// readable from any goroutine while Execute runs (the HTTP monitor's
	// /progress source).
	Status *Status
	// Manifests, when non-nil together with Observe, receives every
	// per-run manifest as it completes (cache hits included), in
	// completion order. Unlike the Result slice this is visible mid-run,
	// which is what the HTTP monitor's /metrics endpoint serves.
	Manifests *obs.ManifestLog
	// Spans, when non-nil, receives the structured lifecycle timeline of
	// every job: queued / ckpt_wait / restore / ffwd / simulate /
	// cache_write spans plus cache_hit / retry / watchdog / quarantine
	// events (see obs.SpanKind). Visible mid-run (the monitor's /timeline
	// source) and streamable to JSONL via SpanLog.SetSink. Purely
	// observational: emission never changes results or cache identity.
	Spans *obs.SpanLog
	// Intervals, when non-nil together with Observe and IntervalEvery,
	// receives every run's interval records live as they are snapshotted
	// (ring-buffered per run, keyed by spec key) — the monitor's
	// /intervals and /runs source. Unlike IntervalSink, which gets whole
	// runs at completion, the store sees records mid-simulation.
	Intervals *obs.IntervalStore

	// WatchdogTimeout, when > 0, supervises every attempt with a
	// heartbeat deadline: an attempt whose simulation makes no forward
	// progress (and beats no heartbeat) for this long is canceled with
	// ErrHung as the cause and fails as a fatal hung-job error.
	WatchdogTimeout time.Duration
	// Retry bounds re-execution of transiently failed attempts (panics,
	// injected faults). The zero value means one attempt — no retries.
	Retry RetryPolicy
	// KeepGoing quarantines terminally failed jobs (their Result carries
	// the classified error) and lets the rest of the pool finish, instead
	// of the default first-error abort. Execute then returns the first
	// quarantined error alongside all completed results.
	KeepGoing bool
	// Journal, when non-nil, is the crash-safe completion WAL: cached
	// results are trusted only for journaled keys, and every fresh
	// result is journaled (append + fsync) after it is cached. See
	// OpenJournal.
	Journal *Journal
	// Checkpoint enables post-warmup state reuse for fast-forward specs
	// (Spec.FFwd with a non-zero warmup budget; requires Cache): the first
	// job of a given CheckpointKey fast-forwards once and snapshots, every
	// other job restores — a timing sweep of N configurations over one
	// workload pays its warmup once instead of N times. Unlike the result
	// cache this is NOT disabled by tracing/interval bypass: a checkpoint
	// captures pre-measurement state, which observation does not affect.
	Checkpoint bool
	// Check enables the online invariant checker inside every simulated
	// core (FTQ occupancy, MSHR leaks, RAS depth, accounting
	// conservation); a violation fails the job with core.ErrInvariant.
	Check bool
	// FaultHook, when non-nil, runs at the start of every attempt (after
	// the cache check) — the fault-injection seam used by the chaos
	// harness. A returned error fails the attempt; a panic is handled
	// like a simulation panic.
	FaultHook func(ctx context.Context, job, attempt int) error
}

// CacheBypassed reports whether the options force cache bypass: tracing
// or interval recording make runs non-replayable from cached results.
func (o Options) CacheBypassed() bool {
	return o.TraceCap > 0 || o.IntervalEvery > 0
}

// Result is the outcome of one spec.
type Result struct {
	// Run is the measurement record (nil when the job failed or was
	// cancelled before completing).
	Run *stats.Run
	// Manifest is the per-run observability document (Observe only).
	Manifest *obs.Manifest
	// CacheHit reports the result was replayed from the cache.
	CacheHit bool
	// Err is this job's own failure, if any. Execute's returned error is
	// the first failure across all jobs.
	Err error
}

// Execute runs every spec and returns one Result per spec, in spec order
// regardless of scheduling. The first job error cancels the remaining and
// in-flight jobs (simulations poll their context) and is returned;
// already-finished results are still present in the slice. With
// Options.KeepGoing, terminal job failures are quarantined into their
// Result instead, the pool runs to completion, and the first quarantined
// error is returned alongside the full result set.
func Execute(ctx context.Context, specs []Spec, opts Options) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sched := NewScheduler(opts.Parallel, opts.Reg)
	sched.status = opts.Status
	opts.Status.addSpecs(int64(len(specs)))
	results := make([]Result, len(specs))
	useCache := opts.Cache != nil && !opts.CacheBypassed()
	var sinkMu sync.Mutex
	submitted := time.Now() // every spec's queued span starts here

	if useCache {
		opts.Cache.SetQuarantineHook(func() {
			sched.metrics.count(sched.metrics.cacheQuarantined)
			opts.Status.cacheQuarantined()
		})
		defer opts.Cache.SetQuarantineHook(nil)
	}

	var wd *watchdog
	if opts.WatchdogTimeout > 0 {
		wd = newWatchdog(opts.WatchdogTimeout, sched.metrics, opts.Status)
		defer wd.close()
	}

	var ckpts *ckptGroup
	if opts.Checkpoint && opts.Cache != nil {
		ckpts = newCkptGroup()
	}

	var (
		quarMu    sync.Mutex
		firstQuar error
	)

	err := sched.Run(ctx, len(specs), func(ctx context.Context, i int) error {
		sp := &specs[i]
		label := sp.Config.Name + "/" + sp.Workload
		opts.Spans.Span(label, i, 0, obs.SpanQueued, submitted, time.Now(), "", "")
		key := ""
		if useCache || opts.Journal != nil {
			key = sp.Key()
		}
		// A cached result counts as done only if the journal (when
		// configured) confirms it was durably recorded: the journal is the
		// completion source of truth on resume.
		if useCache && (opts.Journal == nil || opts.Journal.Done(key)) {
			if run, m, ok := opts.Cache.Get(key, opts.Observe); ok {
				sched.metrics.count(sched.metrics.cacheHits)
				opts.Status.cacheHit()
				opts.Spans.Event(label, i, 0, obs.SpanCacheHit, "", "")
				if m != nil {
					opts.Manifests.Add(m)
				}
				results[i] = Result{Run: run, Manifest: m, CacheHit: true}
				return nil
			}
			sched.metrics.count(sched.metrics.cacheMisses)
			opts.Status.cacheMiss()
		} else if useCache {
			sched.metrics.count(sched.metrics.cacheMisses)
			opts.Status.cacheMiss()
		}

		// Checkpoint plan: resolve the post-warmup snapshot before the
		// attempt loop. Either restore bytes are in hand (cache hit or a
		// concurrent builder's snapshot) or this job is elected builder and
		// must publish — finish on success, fail on every other exit so
		// waiters are never stranded.
		var (
			ckptKey       string
			ckptRestore   []byte
			ckptBuild     bool
			ckptPublished bool
		)
		if ckpts != nil && sp.FFwd && sp.Warmup > 0 {
			ckptKey = sp.CheckpointKey()
			var aerr error
			waitStart := time.Now()
			ckptRestore, ckptBuild, aerr = ckpts.acquire(ctx, opts.Cache, ckptKey)
			if aerr != nil {
				return aerr
			}
			ckptMode := "hit"
			if ckptBuild {
				ckptMode = "build"
			}
			opts.Spans.Span(label, i, 0, obs.SpanCkptWait, waitStart, time.Now(), ckptMode, "")
			if ckptBuild {
				sched.metrics.count(sched.metrics.ckptMisses)
				opts.Status.checkpointMiss()
				defer func() {
					if !ckptPublished {
						ckpts.fail(ckptKey)
					}
				}()
			} else {
				sched.metrics.count(sched.metrics.ckptHits)
				opts.Status.checkpointHit()
			}
		}

		policy := opts.Retry.normalized()
		seed := backoffSeed(sp.Key())
		var lastErr error
		for attempt := 1; attempt <= policy.Attempts; attempt++ {
			res, snap, restored, err := runAttempt(ctx, sp, i, attempt, label, opts, wd, &sinkMu, ckptRestore, ckptBuild)
			if err == nil {
				results[i] = res
				if ckptBuild {
					opts.Cache.PutCheckpoint(ckptKey, snap)
					ckpts.finish(ckptKey, snap)
					ckptPublished = true
				}
				if restored {
					sched.metrics.count(sched.metrics.ckptRestores)
					opts.Status.checkpointRestored()
				}
				if useCache || opts.Journal != nil {
					wStart := time.Now()
					if useCache {
						opts.Cache.Put(key, res.Run, res.Manifest)
					}
					if opts.Journal != nil {
						// Journal after the cache write: a journaled key
						// promises a replayable (or at worst re-simulatable)
						// result, never the reverse.
						_ = opts.Journal.Record(key)
					}
					opts.Spans.Span(label, i, attempt, obs.SpanCacheWrite, wStart, time.Now(), "", "")
				}
				return nil
			}
			// A pure cancellation casualty (pool abort or caller cancel,
			// not this job's own hang) passes through unclassified so the
			// scheduler counts it as canceled, not failed.
			if (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) &&
				!errors.Is(err, ErrHung) {
				return err
			}
			if errors.Is(err, ErrHung) {
				opts.Spans.Event(label, i, attempt, obs.SpanWatchdog, "", err.Error())
			}
			lastErr = &Error{Class: Classify(err), Job: label, Attempts: attempt, Err: err}
			if Classify(err) == ClassTransient && attempt < policy.Attempts {
				sched.metrics.count(sched.metrics.retries)
				opts.Status.retried()
				opts.Spans.Event(label, i, attempt, obs.SpanRetry, Classify(err).String(), err.Error())
				if serr := sleepCtx(ctx, policy.Backoff(attempt, seed)); serr != nil {
					return serr
				}
				continue
			}
			break
		}
		results[i] = Result{Err: lastErr}
		if opts.KeepGoing {
			sched.metrics.count(sched.metrics.quarantined)
			opts.Status.quarantined()
			opts.Spans.Event(label, i, 0, obs.SpanQuarantine, "", lastErr.Error())
			quarMu.Lock()
			if firstQuar == nil {
				firstQuar = lastErr
			}
			quarMu.Unlock()
			return nil
		}
		return lastErr
	})
	if err == nil {
		quarMu.Lock()
		err = firstQuar
		quarMu.Unlock()
	}
	return results, err
}

// runAttempt executes one attempt of one spec: fault hook, simulation
// (with heartbeat, watchdog supervision, and optional invariant checks),
// sink writes, and manifest assembly. Panics are recovered into ErrPanic
// so the retry loop can classify them as transient.
//
// For fast-forward specs, restore (when non-nil) seeds the run from a
// checkpoint and buildSnap asks the run to return one. The returned snap
// is non-nil only when buildSnap was honoured; restored reports that the
// run actually measured from the restore bytes (false after the
// bad-snapshot cold fallback).
func runAttempt(ctx context.Context, sp *Spec, i, attempt int, label string, opts Options, wd *watchdog, sinkMu *sync.Mutex, restore []byte, buildSnap bool) (res Result, snap []byte, restored bool, err error) {
	attemptCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	hb := &core.Heartbeat{}
	if wd != nil {
		wd.watch(i, label, hb, cancel)
		defer wd.unwatch(i)
	}
	opts.Status.TrackJob(i, label, attempt, hb)
	defer opts.Status.UntrackJob(i)
	defer func() {
		if r := recover(); r != nil {
			opts.Status.panicked()
			res, snap, restored, err = Result{}, nil, false, fmt.Errorf("%w: job %q attempt %d: %v", ErrPanic, label, attempt, r)
		}
	}()

	if opts.FaultHook != nil {
		if ferr := opts.FaultHook(attemptCtx, i, attempt); ferr != nil {
			return Result{}, nil, false, hungOr(attemptCtx, ferr)
		}
	}

	var p *obs.Probes
	if opts.Observe {
		p = obs.NewProbes()
		if opts.TraceCap > 0 {
			p.EnableTrace(opts.TraceCap)
		}
		if opts.IntervalEvery > 0 {
			p.EnableIntervals(opts.IntervalEvery)
			if opts.Intervals != nil {
				// Stream snapshots into the live store as they are taken.
				// Finish on every attempt exit — a retry re-registers the
				// same id, clearing the ring but keeping follower cursors
				// valid (the store sequence is monotonic per id).
				ir := opts.Intervals.StartRun(sp.Key(), label, opts.IntervalEvery)
				p.Intervals.SetTee(ir)
				defer ir.Finish()
			}
		}
	}

	// The span timeline of the simulation itself: the fast-forward and
	// checkpoint entry points report their phase boundaries through the
	// observational SimOptions.Phase callback (same goroutine), which we
	// fold into restore/ffwd/simulate spans; the plain path emits one
	// simulate span around the whole call.
	mode := "cold"
	switch {
	case sp.FFwd && restore != nil:
		mode = "restored"
	case sp.FFwd && buildSnap:
		mode = "build"
	case sp.FFwd:
		mode = "ffwd"
	}
	simStart := time.Now()
	var (
		phKind    obs.SpanKind
		phStart   time.Time
		phaseOpen bool
	)
	simOpts := core.SimOptions{Probes: p, Heartbeat: hb, Check: opts.Check, FastForward: sp.FFwd}
	if opts.Spans != nil {
		simOpts.Phase = func(name string) {
			now := time.Now()
			if phaseOpen {
				opts.Spans.Span(label, i, attempt, phKind, phStart, now, mode, "")
			}
			switch name {
			case "ffwd":
				phKind = obs.SpanFFwd
			case "restore":
				phKind = obs.SpanRestore
			default:
				phKind = obs.SpanSimulate
			}
			phStart, phaseOpen = now, true
		}
	}
	var run *stats.Run
	var serr error
	switch {
	case sp.FFwd && restore != nil:
		run, _, serr = core.SimulateCheckpointed(attemptCtx, sp.Config, sp.NewOracle(), sp.Workload,
			sp.Warmup, sp.Measure, simOpts, restore)
		restored = serr == nil
		if serr != nil && errors.Is(serr, core.ErrBadSnapshot) && attemptCtx.Err() == nil {
			// Damage the CRC did not catch (or a stale geometry). The run is
			// still correct without the checkpoint: fall back to a cold
			// fast-forward warmup.
			mode = "fallback"
			run, serr = core.SimulateOptions(attemptCtx, sp.Config, sp.NewOracle(), sp.Workload,
				sp.Warmup, sp.Measure, simOpts)
		}
	case sp.FFwd && buildSnap:
		run, snap, serr = core.SimulateCheckpointed(attemptCtx, sp.Config, sp.NewOracle(), sp.Workload,
			sp.Warmup, sp.Measure, simOpts, nil)
	default:
		run, serr = core.SimulateOptions(attemptCtx, sp.Config, sp.NewOracle(), sp.Workload,
			sp.Warmup, sp.Measure, simOpts)
	}
	if opts.Spans != nil {
		now := time.Now()
		errText := ""
		if serr != nil {
			errText = serr.Error()
		}
		if phaseOpen {
			opts.Spans.Span(label, i, attempt, phKind, phStart, now, mode, errText)
		} else {
			opts.Spans.Span(label, i, attempt, obs.SpanSimulate, simStart, now, mode, errText)
		}
	}
	if run != nil {
		run.Class = sp.Class
	}
	if serr != nil {
		return Result{}, nil, false, hungOr(attemptCtx, serr)
	}
	var m *obs.Manifest
	if p != nil {
		m = core.Manifest(sp.Config, run, p, sp.Seed, sp.Warmup, sp.Measure)
		m.FFwd = sp.FFwd
		if opts.TraceSink != nil && p.Tracer != nil {
			sinkMu.Lock()
			werr := obs.WriteRunTrace(opts.TraceSink, label, p.Tracer)
			sinkMu.Unlock()
			if werr != nil {
				return Result{}, nil, false, werr
			}
		}
		if opts.IntervalSink != nil && p.Intervals != nil {
			sinkMu.Lock()
			werr := obs.WriteRunIntervals(opts.IntervalSink, label,
				p.Intervals.Every(), p.Intervals.Records())
			sinkMu.Unlock()
			if werr != nil {
				return Result{}, nil, false, werr
			}
		}
		opts.Manifests.Add(m)
	}
	return Result{Run: run, Manifest: m}, snap, restored, nil
}

// hungOr rewraps a cancellation error whose cause was the watchdog: the
// job did not die as a casualty of someone else's failure, it *was* the
// failure. ErrHung is wrapped with %w (so Classify sees it) while the
// underlying context error is flattened with %v — a hung job must not
// match the scheduler's errors.Is(err, context.Canceled) casualty check.
func hungOr(ctx context.Context, err error) error {
	if errors.Is(err, context.Canceled) && errors.Is(context.Cause(ctx), ErrHung) {
		return fmt.Errorf("%w (no forward progress; canceled by watchdog): %v", ErrHung, err)
	}
	return err
}
