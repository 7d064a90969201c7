package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// SpanKind classifies one runner lifecycle span or event. Spans carry a
// duration (where an attempt's wall time went); events are instantaneous
// markers (something happened to the attempt). The taxonomy mirrors the
// runner's job lifecycle: a spec waits in the backlog (queued), resolves
// its post-warmup state (ckpt_wait, then restore or ffwd), simulates its
// measured region (simulate), and publishes (cache_write) — with retry,
// watchdog and quarantine events marking the exceptional paths. See
// docs/OBSERVABILITY.md for the full taxonomy.
type SpanKind uint8

const (
	// SpanQueued: the spec waited in the scheduler backlog before a
	// worker picked it up.
	SpanQueued SpanKind = iota
	// SpanCkptWait: the job waited for its post-warmup checkpoint —
	// a disk-cache read, or another job concurrently building it.
	SpanCkptWait
	// SpanRestore: the checkpointed post-warmup state, including the
	// oracle's position at the warmup boundary, was loaded into a fresh
	// machine.
	SpanRestore
	// SpanFFwd: cold functional fast-forward warmup (training predictors
	// and caches architecturally), including the snapshot build when
	// checkpointing is on.
	SpanFFwd
	// SpanSimulate: the cycle-accurate simulation — the measured region,
	// plus cycle-accurate warmup for runs without fast-forward.
	SpanSimulate
	// SpanCacheWrite: the result cache write plus the journal record.
	SpanCacheWrite

	// SpanCacheHit: event — the spec was served from the result cache
	// without simulating.
	SpanCacheHit
	// SpanRetry: event — a transient attempt failure was scheduled for
	// re-execution after backoff.
	SpanRetry
	// SpanWatchdog: event — the watchdog canceled an attempt that made no
	// forward progress for the deadline.
	SpanWatchdog
	// SpanQuarantine: event — a terminal job failure was contained under
	// keep-going instead of aborting the pool.
	SpanQuarantine

	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	SpanQueued:     "queued",
	SpanCkptWait:   "ckpt_wait",
	SpanRestore:    "restore",
	SpanFFwd:       "ffwd",
	SpanSimulate:   "simulate",
	SpanCacheWrite: "cache_write",
	SpanCacheHit:   "cache_hit",
	SpanRetry:      "retry",
	SpanWatchdog:   "watchdog",
	SpanQuarantine: "quarantine",
}

// String returns the JSONL wire name of the kind.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("SpanKind(%d)", uint8(k))
}

// SpanKindFromString maps a wire name back to its SpanKind.
func SpanKindFromString(s string) (SpanKind, bool) {
	for k, name := range spanKindNames {
		if name == s {
			return SpanKind(k), true
		}
	}
	return 0, false
}

// Span is one timed slice (or instantaneous event) of a runner job's
// lifecycle. Times are microseconds relative to the campaign epoch (the
// SpanLog's creation time), so a timeline view needs no wall-clock
// bookkeeping and the records stay small.
type Span struct {
	// Run is the "config/workload" job label.
	Run string
	// Job is the spec index within the campaign; Attempt is 1 for the
	// first execution, +1 per retry (0 for job-level records that precede
	// the attempt loop, like queued and cache_hit).
	Job     int
	Attempt int
	Kind    SpanKind
	// Start is microseconds since the campaign epoch; Dur is the span
	// length in microseconds (0 for events).
	Start int64
	Dur   int64
	// Detail carries kind-specific context: the simulate mode
	// (cold/restored/build), the retry's error class, and so on.
	Detail string
	// Err is the attempt error the span ended with, if any.
	Err string
}

// appendJSONString appends the JSON encoding of s (quotes included).
// Span strings are labels and error texts, which may contain arbitrary
// bytes; encoding/json escapes them all validly.
func appendJSONString(dst []byte, s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Strings always marshal (invalid UTF-8 is replaced).
		panic(fmt.Sprintf("obs: marshaling string: %v", err))
	}
	return append(dst, b...)
}

// AppendSpanJSONL appends the single-line JSON encoding of sp (without a
// trailing newline) to dst and returns it. Keys are compact: r = run,
// j = job, a = attempt, k = kind, s = start µs, d = duration µs,
// m = detail, e = error; m and e are omitted when empty.
func AppendSpanJSONL(dst []byte, sp Span) []byte {
	dst = append(dst, `{"r":`...)
	dst = appendJSONString(dst, sp.Run)
	dst = append(dst, `,"j":`...)
	dst = strconv.AppendInt(dst, int64(sp.Job), 10)
	dst = append(dst, `,"a":`...)
	dst = strconv.AppendInt(dst, int64(sp.Attempt), 10)
	dst = append(dst, `,"k":"`...)
	dst = append(dst, sp.Kind.String()...)
	dst = append(dst, `","s":`...)
	dst = strconv.AppendInt(dst, sp.Start, 10)
	dst = append(dst, `,"d":`...)
	dst = strconv.AppendInt(dst, sp.Dur, 10)
	if sp.Detail != "" {
		dst = append(dst, `,"m":`...)
		dst = appendJSONString(dst, sp.Detail)
	}
	if sp.Err != "" {
		dst = append(dst, `,"e":`...)
		dst = appendJSONString(dst, sp.Err)
	}
	dst = append(dst, '}')
	return dst
}

// wireSpan is the JSONL representation of a Span.
type wireSpan struct {
	R string `json:"r"`
	J int    `json:"j"`
	A int    `json:"a"`
	K string `json:"k"`
	S int64  `json:"s"`
	D int64  `json:"d"`
	M string `json:"m,omitempty"`
	E string `json:"e,omitempty"`
}

// ParseSpan decodes one JSONL span line.
func ParseSpan(line []byte) (Span, error) {
	var w wireSpan
	if err := json.Unmarshal(line, &w); err != nil {
		return Span{}, fmt.Errorf("obs: bad span line: %w", err)
	}
	k, ok := SpanKindFromString(w.K)
	if !ok {
		return Span{}, fmt.Errorf("obs: unknown span kind %q", w.K)
	}
	return Span{Run: w.R, Job: w.J, Attempt: w.A, Kind: k, Start: w.S, Dur: w.D, Detail: w.M, Err: w.E}, nil
}

// WriteSpans writes the spans as JSONL, one per line.
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, sp := range spans {
		line = AppendSpanJSONL(line[:0], sp)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpanJSONL parses a span stream produced by WriteSpans or a SpanLog
// sink, skipping blank lines.
func ReadSpanJSONL(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var spans []Span
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		sp, err := ParseSpan(line)
		if err != nil {
			return nil, err
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}

// SpanLog is a concurrency-safe collector of lifecycle spans with one
// shared campaign epoch. Workers emit through the timestamp helpers (Span
// and Event convert wall-clock times into epoch-relative offsets); the
// HTTP monitor reads via All while the campaign runs. An optional sink
// additionally receives every span as JSONL the moment it is emitted, so
// a crash loses at most the in-flight line. A nil *SpanLog disables all
// emission, mirroring the other obs collectors.
type SpanLog struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []Span
	sink    io.Writer
	buf     []byte
	sinkErr error
}

// NewSpanLog creates an empty log whose epoch is now.
func NewSpanLog() *SpanLog { return &SpanLog{epoch: time.Now()} }

// SetSink attaches a JSONL streaming sink; every subsequently emitted
// span is written (serialized) as one line. Write errors are sticky and
// reported by SinkErr, not propagated to emitters: observability output
// must never fail the simulation that produced it.
func (l *SpanLog) SetSink(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = w
	l.mu.Unlock()
}

// Epoch returns the campaign epoch spans are measured from (zero time for
// a nil receiver).
func (l *SpanLog) Epoch() time.Time {
	if l == nil {
		return time.Time{}
	}
	return l.epoch
}

// Add appends a raw span. Safe on a nil receiver and for concurrent use.
func (l *SpanLog) Add(sp Span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	if l.sink != nil && l.sinkErr == nil {
		l.buf = AppendSpanJSONL(l.buf[:0], sp)
		l.buf = append(l.buf, '\n')
		if _, err := l.sink.Write(l.buf); err != nil {
			l.sinkErr = err
		}
	}
	l.mu.Unlock()
}

// Span emits a timed span from wall-clock start/end times, converting
// them to epoch offsets. Safe on a nil receiver.
func (l *SpanLog) Span(run string, job, attempt int, kind SpanKind, start, end time.Time, detail, errText string) {
	if l == nil {
		return
	}
	l.Add(Span{
		Run: run, Job: job, Attempt: attempt, Kind: kind,
		Start:  start.Sub(l.epoch).Microseconds(),
		Dur:    end.Sub(start).Microseconds(),
		Detail: detail, Err: errText,
	})
}

// Event emits an instantaneous marker at the current time. Safe on a nil
// receiver.
func (l *SpanLog) Event(run string, job, attempt int, kind SpanKind, detail, errText string) {
	if l == nil {
		return
	}
	now := time.Now()
	l.Span(run, job, attempt, kind, now, now, detail, errText)
}

// All returns a copy of the collected spans, in emission order.
func (l *SpanLog) All() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}

// SinkErr returns the first streaming-sink write error, if any.
func (l *SpanLog) SinkErr() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}
