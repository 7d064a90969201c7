package runner

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fdp/internal/core"
	"fdp/internal/obs"
)

// Status is the live progress view of an Execute call, built for
// concurrent readers (the HTTP monitor) while workers update it. The obs
// registry is deliberately NOT used here: it is single-goroutine by
// contract. Counters are plain atomics that any goroutine may read
// mid-run; the per-job table (labels, attempts, heartbeats) is a small
// mutex-guarded map updated only at attempt boundaries, never from the
// cycle loop. A nil *Status disables all updates.
type Status struct {
	// Specs is the total number of specs handed to Execute.
	Specs atomic.Int64
	// Started counts jobs a worker has begun (cache hits included);
	// Done counts jobs that finished, successfully or not.
	Started atomic.Int64
	Done    atomic.Int64
	// Running is the instantaneous number of in-flight jobs.
	Running atomic.Int64
	// CacheHits / CacheMisses mirror the runner_cache_* counters.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// Canceled counts jobs abandoned by first-error or caller
	// cancellation; Panics counts recovered job panics.
	Canceled atomic.Int64
	Panics   atomic.Int64
	// Retries counts transient-failure re-attempts; Watchdog counts
	// watchdog cancellations of hung jobs; Quarantined counts terminal
	// failures contained under keep-going; CacheQuarantined counts
	// corrupt disk cache entries set aside as *.corrupt.
	Retries          atomic.Int64
	Watchdog         atomic.Int64
	Quarantined      atomic.Int64
	CacheQuarantined atomic.Int64
	// CheckpointHits / CheckpointMisses / CheckpointRestores mirror the
	// runner_checkpoint_* counters: warmups served from a checkpoint,
	// checkpoints built cold, and runs that measured from a restored
	// snapshot.
	CheckpointHits     atomic.Int64
	CheckpointMisses   atomic.Int64
	CheckpointRestores atomic.Int64

	mu   sync.Mutex
	jobs map[int]*jobStatus

	// queueDepth mirrors the runner_queue_depth histogram under Status's
	// own lock. The obs registry handed to the scheduler is locked only
	// on the write side (schedMetrics), so the monitor must never read it
	// mid-run; this mirror is the concurrent-read-safe copy the /metrics
	// quantile summary is served from.
	qmu        sync.Mutex
	queueDepth obs.Histogram
}

// jobStatus is the live view of one in-flight attempt.
type jobStatus struct {
	label   string
	attempt int
	started time.Time
	hb      *core.Heartbeat
}

// StatusSnapshot is the JSON shape served on the monitor's /progress
// endpoint: one consistent-enough point-in-time read of every field.
type StatusSnapshot struct {
	Specs            int64 `json:"specs"`
	Started          int64 `json:"started"`
	Done             int64 `json:"done"`
	Running          int64 `json:"running"`
	Queued           int64 `json:"queued"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	Canceled         int64 `json:"canceled"`
	Panics           int64 `json:"panics"`
	Retries          int64 `json:"retries"`
	Watchdog         int64 `json:"watchdog_fired"`
	Quarantined      int64 `json:"quarantined"`
	CacheQuarantined int64 `json:"cache_quarantined"`
	// Checkpoint counters are present whenever checkpointing is enabled
	// (zero otherwise): a sweep in good shape shows one miss (the build)
	// and hits for every other job sharing the warmup.
	CheckpointHits     int64 `json:"checkpoint_hits"`
	CheckpointMisses   int64 `json:"checkpoint_misses"`
	CheckpointRestores int64 `json:"checkpoint_restores"`
	// Jobs lists the in-flight attempts with their last-heartbeat age —
	// a stalling job shows up as a growing last_beat_ms before the
	// watchdog fires.
	Jobs []JobSnapshot `json:"jobs,omitempty"`
}

// JobSnapshot is one in-flight attempt on /progress.
type JobSnapshot struct {
	// Index is the spec index; Job is the "config/workload" label.
	Index int    `json:"index"`
	Job   string `json:"job"`
	// Attempt is 1 for the first execution, +1 per retry.
	Attempt int `json:"attempt"`
	// RunningMS is wall time since the attempt started; LastBeatMS is
	// the age of the newest heartbeat (-1 before the first beat);
	// Cycles is the simulated cycle it reported.
	RunningMS  int64  `json:"running_ms"`
	LastBeatMS int64  `json:"last_beat_ms"`
	Cycles     uint64 `json:"cycles"`
}

// Snapshot reads the current values. Fields are read independently, so a
// snapshot taken mid-update may be off by a job — fine for monitoring.
func (s *Status) Snapshot() StatusSnapshot {
	if s == nil {
		return StatusSnapshot{}
	}
	snap := StatusSnapshot{
		Specs:            s.Specs.Load(),
		Started:          s.Started.Load(),
		Done:             s.Done.Load(),
		Running:          s.Running.Load(),
		CacheHits:        s.CacheHits.Load(),
		CacheMisses:      s.CacheMisses.Load(),
		Canceled:         s.Canceled.Load(),
		Panics:           s.Panics.Load(),
		Retries:          s.Retries.Load(),
		Watchdog:         s.Watchdog.Load(),
		Quarantined:      s.Quarantined.Load(),
		CacheQuarantined: s.CacheQuarantined.Load(),

		CheckpointHits:     s.CheckpointHits.Load(),
		CheckpointMisses:   s.CheckpointMisses.Load(),
		CheckpointRestores: s.CheckpointRestores.Load(),
	}
	if q := snap.Specs - snap.Started; q > 0 {
		snap.Queued = q
	}
	now := time.Now()
	s.mu.Lock()
	for i, js := range s.jobs {
		j := JobSnapshot{
			Index:      i,
			Job:        js.label,
			Attempt:    js.attempt,
			RunningMS:  now.Sub(js.started).Milliseconds(),
			LastBeatMS: -1,
			Cycles:     js.hb.Cycles(),
		}
		if lb := js.hb.LastBeat(); !lb.IsZero() {
			j.LastBeatMS = now.Sub(lb).Milliseconds()
		}
		snap.Jobs = append(snap.Jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(snap.Jobs, func(a, b int) bool { return snap.Jobs[a].Index < snap.Jobs[b].Index })
	return snap
}

// nil-safe increment helpers used from the scheduler hot path.

func (s *Status) addSpecs(n int64) {
	if s != nil {
		s.Specs.Add(n)
	}
}

func (s *Status) jobStarted() {
	if s != nil {
		s.Started.Add(1)
		s.Running.Add(1)
	}
}

func (s *Status) jobDone() {
	if s != nil {
		s.Done.Add(1)
		s.Running.Add(-1)
	}
}

func (s *Status) cacheHit() {
	if s != nil {
		s.CacheHits.Add(1)
	}
}

func (s *Status) cacheMiss() {
	if s != nil {
		s.CacheMisses.Add(1)
	}
}

func (s *Status) addCanceled(n int64) {
	if s != nil && n > 0 {
		s.Canceled.Add(n)
	}
}

func (s *Status) panicked() {
	if s != nil {
		s.Panics.Add(1)
	}
}

func (s *Status) retried() {
	if s != nil {
		s.Retries.Add(1)
	}
}

func (s *Status) watchdogFired() {
	if s != nil {
		s.Watchdog.Add(1)
	}
}

func (s *Status) quarantined() {
	if s != nil {
		s.Quarantined.Add(1)
	}
}

func (s *Status) cacheQuarantined() {
	if s != nil {
		s.CacheQuarantined.Add(1)
	}
}

func (s *Status) checkpointHit() {
	if s != nil {
		s.CheckpointHits.Add(1)
	}
}

func (s *Status) checkpointMiss() {
	if s != nil {
		s.CheckpointMisses.Add(1)
	}
}

func (s *Status) checkpointRestored() {
	if s != nil {
		s.CheckpointRestores.Add(1)
	}
}

// ObserveQueueDepth samples the backlog at a job start. Execute calls
// this from the scheduler; it is exported, like TrackJob, so alternative
// runners can feed the same monitor.
func (s *Status) ObserveQueueDepth(d uint64) {
	if s == nil {
		return
	}
	s.qmu.Lock()
	s.queueDepth.Observe(d)
	s.qmu.Unlock()
}

// QueueDepthSnapshot returns the queue-depth histogram observed so far
// (samples taken at every job start). Safe for concurrent use and on a
// nil receiver.
func (s *Status) QueueDepthSnapshot() obs.HistogramSnapshot {
	if s == nil {
		return obs.HistogramSnapshot{}
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.queueDepth.Snapshot()
}

// TrackJob registers job i's current attempt (and its heartbeat) for
// /progress; UntrackJob removes it when the attempt ends. Execute calls
// these around every attempt; they are exported so alternative runners
// can feed the same monitor.
func (s *Status) TrackJob(i int, label string, attempt int, hb *core.Heartbeat) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.jobs == nil {
		s.jobs = make(map[int]*jobStatus)
	}
	s.jobs[i] = &jobStatus{label: label, attempt: attempt, started: time.Now(), hb: hb}
	s.mu.Unlock()
}

// UntrackJob removes job i from the in-flight table.
func (s *Status) UntrackJob(i int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	delete(s.jobs, i)
	s.mu.Unlock()
}
