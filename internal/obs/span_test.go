package obs

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanKindNames(t *testing.T) {
	for k := SpanKind(0); k < numSpanKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "SpanKind(") {
			t.Fatalf("kind %d has no wire name", k)
		}
		back, ok := SpanKindFromString(name)
		if !ok || back != k {
			t.Fatalf("SpanKindFromString(%q) = %v, %v; want %v", name, back, ok, k)
		}
	}
	if _, ok := SpanKindFromString("nope"); ok {
		t.Fatal("unknown name resolved")
	}
	for _, retired := range []string{"lease", "reassign", "worker_lost"} {
		if _, ok := SpanKindFromString(retired); ok {
			t.Fatalf("retired kind %q still resolves", retired)
		}
	}
	if got := SpanKind(200).String(); got != "SpanKind(200)" {
		t.Fatalf("out-of-range String = %q", got)
	}
}

func TestSpanCodecRoundTrip(t *testing.T) {
	spans := []Span{
		{Run: "fdp/server_a", Job: 0, Attempt: 1, Kind: SpanSimulate, Start: 1234, Dur: 56789, Detail: "cold"},
		{Run: "baseline/client_b", Job: 7, Attempt: 2, Kind: SpanRetry, Start: -3, Dur: 0, Detail: "transient", Err: "panic: boom"},
		{Run: `quote"back\slash` + "\nnewline", Kind: SpanQueued, Start: 0, Dur: 0},
		{Run: "", Kind: SpanCacheHit},
	}
	for _, sp := range spans {
		line := AppendSpanJSONL(nil, sp)
		back, err := ParseSpan(line)
		if err != nil {
			t.Fatalf("ParseSpan(%q): %v", line, err)
		}
		if back != sp {
			t.Fatalf("round trip: %+v -> %q -> %+v", sp, line, back)
		}
	}

	var buf bytes.Buffer
	if err := WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpanJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("read %d spans, want %d", len(got), len(spans))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Fatalf("span %d: %+v != %+v", i, got[i], spans[i])
		}
	}
}

func TestSpanCodecErrors(t *testing.T) {
	if _, err := ParseSpan([]byte("not json")); err == nil {
		t.Error("malformed line should error")
	}
	if _, err := ParseSpan([]byte(`{"r":"x","k":"nope"}`)); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := ReadSpanJSONL(strings.NewReader(`{"r":"x","k":"nope"}` + "\n")); err == nil {
		t.Error("stream with bad line should error")
	}
	if got, err := ReadSpanJSONL(strings.NewReader("\n\n")); err != nil || len(got) != 0 {
		t.Errorf("blank lines: %v, %v", got, err)
	}
}

func TestSpanLog(t *testing.T) {
	l := NewSpanLog()
	epoch := l.Epoch()
	if epoch.IsZero() {
		t.Fatal("epoch not set")
	}
	start := epoch.Add(10 * time.Millisecond)
	l.Span("cfg/wl", 1, 1, SpanSimulate, start, start.Add(2*time.Millisecond), "cold", "")
	l.Event("cfg/wl", 1, 1, SpanRetry, "transient", "boom")
	all := l.All()
	if len(all) != 2 {
		t.Fatalf("got %d spans, want 2", len(all))
	}
	if all[0].Start != 10_000 || all[0].Dur != 2_000 {
		t.Fatalf("epoch offsets wrong: start=%d dur=%d", all[0].Start, all[0].Dur)
	}
	if all[1].Dur != 0 || all[1].Kind != SpanRetry || all[1].Err != "boom" {
		t.Fatalf("event shape wrong: %+v", all[1])
	}
	// All returns a copy.
	all[0].Run = "clobbered"
	if l.All()[0].Run != "cfg/wl" {
		t.Fatal("All leaked internal storage")
	}
}

func TestSpanLogSink(t *testing.T) {
	l := NewSpanLog()
	var buf bytes.Buffer
	l.SetSink(&buf)
	l.Event("a/b", 0, 1, SpanWatchdog, "", "hung")
	l.Event("a/b", 0, 2, SpanQuarantine, "", "hung")
	got, err := ReadSpanJSONL(&buf)
	if err != nil || len(got) != 2 {
		t.Fatalf("sink stream: %v, %v", got, err)
	}
	if got[0].Kind != SpanWatchdog || got[1].Kind != SpanQuarantine {
		t.Fatalf("sink order wrong: %+v", got)
	}
	if l.SinkErr() != nil {
		t.Fatalf("unexpected sink error: %v", l.SinkErr())
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

func TestSpanLogSinkErrSticky(t *testing.T) {
	l := NewSpanLog()
	wantErr := errors.New("disk full")
	l.SetSink(failWriter{err: wantErr})
	l.Event("a/b", 0, 1, SpanRetry, "", "")
	l.Event("a/b", 0, 2, SpanRetry, "", "")
	if !errors.Is(l.SinkErr(), wantErr) {
		t.Fatalf("SinkErr = %v, want %v", l.SinkErr(), wantErr)
	}
	// Emission must survive a broken sink: the in-memory log still grows.
	if len(l.All()) != 2 {
		t.Fatalf("log lost spans after sink error: %d", len(l.All()))
	}
}

func TestSpanLogNil(t *testing.T) {
	var l *SpanLog
	l.Add(Span{})
	l.Span("x", 0, 0, SpanQueued, time.Now(), time.Now(), "", "")
	l.Event("x", 0, 0, SpanRetry, "", "")
	l.SetSink(&bytes.Buffer{})
	if l.All() != nil || l.SinkErr() != nil || !l.Epoch().IsZero() {
		t.Fatal("nil SpanLog misbehaved")
	}
}

func TestSpanLogConcurrent(t *testing.T) {
	l := NewSpanLog()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Event("a/b", i, 1, SpanRetry, "", "")
				l.All()
			}
		}()
	}
	wg.Wait()
	if len(l.All()) != 800 {
		t.Fatalf("got %d spans, want 800", len(l.All()))
	}
}
