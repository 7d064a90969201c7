package runner

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"fdp/internal/core"
	"fdp/internal/trace"
	"fdp/internal/xrand"
)

// ErrClass is the runner's error taxonomy. Every failed job is classified
// so the scheduler can choose the right degradation: transient failures
// are retried with backoff, corrupt inputs and fatal errors are not (the
// simulator is deterministic, so re-running them reproduces the failure),
// and under -keep-going any terminal failure quarantines only its own job.
type ErrClass uint8

const (
	// ClassFatal marks deterministic failures: invariant violations, hung
	// jobs, bad configurations. Retrying cannot help.
	ClassFatal ErrClass = iota
	// ClassTransient marks failures worth retrying: job panics (possibly
	// environmental — memory pressure, a poisoned sibling) and I/O errors
	// on side outputs.
	ClassTransient
	// ClassCorruptInput marks failures of the input data, not the
	// simulator: corrupt or truncated trace files. Retrying re-reads the
	// same bytes, so these are terminal, but they indict the input.
	ClassCorruptInput
)

// String returns the class's wire name (used in error text, logs and the
// chaos harness's assertions).
func (c ErrClass) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassCorruptInput:
		return "corrupt-input"
	default:
		return "fatal"
	}
}

// Sentinel failure causes, matched with errors.Is.
var (
	// ErrHung marks a job canceled by the watchdog: its heartbeat showed
	// no forward progress for the configured deadline.
	ErrHung = errors.New("runner: job hung (watchdog deadline exceeded)")
	// ErrPanic marks a job that panicked and was recovered in isolation.
	ErrPanic = errors.New("runner: job panicked")
)

// Error is one classified job failure: what failed, how it is classified,
// and how many attempts were made. It wraps the underlying cause, so
// errors.Is sees through it (e.g. errors.Is(err, ErrHung)).
type Error struct {
	// Class is the taxonomy bucket driving retry/quarantine decisions.
	Class ErrClass
	// Job is the human-readable job label ("config/workload").
	Job string
	// Attempts is how many attempts were made, the failing one included.
	Attempts int
	// Err is the underlying cause.
	Err error
}

// Error renders the classified failure.
func (e *Error) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("runner: job %s failed (%s, %d attempts): %v", e.Job, e.Class, e.Attempts, e.Err)
	}
	return fmt.Sprintf("runner: job %s failed (%s): %v", e.Job, e.Class, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Classify maps an arbitrary job error onto the taxonomy. A runner *Error
// keeps its embedded class; raw errors are classified by cause.
func Classify(err error) ErrClass {
	var re *Error
	if errors.As(err, &re) {
		return re.Class
	}
	switch {
	case errors.Is(err, trace.ErrCorrupt):
		return ClassCorruptInput
	case errors.Is(err, ErrPanic):
		return ClassTransient
	case errors.Is(err, ErrHung), errors.Is(err, core.ErrInvariant):
		return ClassFatal
	default:
		return ClassFatal
	}
}

// RetryPolicy bounds re-execution of transiently failed jobs:
// exponential backoff from Base to Cap with deterministic full jitter, so
// a retried fleet neither thunders in lockstep nor loses reproducibility
// (the jitter is a pure function of the spec hash and the attempt).
type RetryPolicy struct {
	// Attempts is the maximum number of attempts per job, the first one
	// included. Zero and one both mean "no retries".
	Attempts int
	// Base is the backoff before the first retry (default 50ms).
	Base time.Duration
	// Cap bounds the exponential growth (default 2s).
	Cap time.Duration
}

// normalized fills the policy's defaults.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 2 * time.Second
	}
	if p.Cap < p.Base {
		p.Cap = p.Base
	}
	return p
}

// Backoff returns the sleep before retry number `retry` (1-based): the
// exponential step capped at Cap, jittered into [step/2, step) by a
// SplitMix64 stream seeded from (seed, retry). Same inputs, same delay —
// chaos runs replay byte-for-byte.
//
// The jitter seed avalanche-mixes the spec seed and the attempt number
// (xrand.Mix on each before combining). The previous linear fold
// (seed ^ retry*gamma) left the per-retry streams correlated — with
// seed 0, retry r's second draw equals retry r+1's first — so nearby
// attempts of one spec could jitter in near-lockstep, which is exactly
// what jitter exists to prevent. TestBackoffGolden pins the values.
func (p RetryPolicy) Backoff(retry int, seed uint64) time.Duration {
	if retry < 1 {
		retry = 1
	}
	step := p.Base
	for i := 1; i < retry && step < p.Cap; i++ {
		step *= 2
	}
	if step > p.Cap {
		step = p.Cap
	}
	half := step / 2
	if half <= 0 {
		return step
	}
	rng := xrand.New(xrand.Mix(seed) ^ xrand.Mix(uint64(retry)))
	return half + time.Duration(rng.Uint64()%uint64(half))
}

// backoffSeed derives the deterministic jitter seed from a spec key (the
// leading 16 hex digits of the content hash).
func backoffSeed(key string) uint64 {
	if len(key) < 16 {
		return 0
	}
	v, err := strconv.ParseUint(key[:16], 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// sleepCtx sleeps for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
