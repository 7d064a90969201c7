package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
)

// FuzzHistogram checks the power-of-two bucketing invariants over
// arbitrary sample sequences: every value lands in exactly one bucket
// whose bounds contain it, bucket counts sum to the observation count,
// and min/max/sum match a straightforward recomputation.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<63))
	seed := make([]byte, 0, 32)
	for _, v := range []uint64{0, 1, 255, 256, 1<<40 - 1} {
		seed = binary.LittleEndian.AppendUint64(seed, v)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		var values []uint64
		for len(data) >= 8 {
			v := binary.LittleEndian.Uint64(data)
			data = data[8:]
			values = append(values, v)
			h.Observe(v)
		}
		if h.Count() != uint64(len(values)) {
			t.Fatalf("count = %d, want %d", h.Count(), len(values))
		}
		var sum, min, max uint64
		for i, v := range values {
			if i == 0 || v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
			b := BucketIndex(v)
			lo, hi := BucketBounds(b)
			if v < lo || v > hi {
				t.Fatalf("value %d bucketed into [%d,%d]", v, lo, hi)
			}
		}
		if h.Sum() != sum {
			t.Fatalf("sum = %d, want %d", h.Sum(), sum)
		}
		s := h.Snapshot()
		var total uint64
		for _, b := range s.Buckets {
			total += b.Count
			if b.Lo > b.Hi {
				t.Fatalf("bucket bounds inverted: [%d,%d]", b.Lo, b.Hi)
			}
			if b.Count == 0 {
				t.Fatal("snapshot contains empty bucket")
			}
		}
		if total != h.Count() {
			t.Fatalf("bucket counts sum to %d, want %d", total, h.Count())
		}
		if len(values) > 0 && (s.Min != min || s.Max != max) {
			t.Fatalf("min/max = %d/%d, want %d/%d", s.Min, s.Max, min, max)
		}
	})
}

// FuzzSpanJSONL is the span codec's differential fuzz target: arbitrary
// input must never panic; any line that parses must round-trip through
// the hand-rolled encoder bit-exactly; and the hand-rolled encoding must
// agree with encoding/json's view of the wire struct (parse of either
// yields the same Span).
func FuzzSpanJSONL(f *testing.F) {
	for k := SpanKind(0); k < numSpanKinds; k++ {
		f.Add(AppendSpanJSONL(nil, Span{Run: "fdp/server_a", Job: 3, Attempt: 1, Kind: k, Start: 12345, Dur: 678, Detail: "restored"}))
	}
	f.Add(AppendSpanJSONL(nil, Span{Run: `we"ird\run` + "\n\x00\x7f", Kind: SpanRetry, Start: -5, Err: "boom: \"quoted\""}))
	f.Add([]byte(`{"r":"a/b","j":0,"a":0,"k":"queued","s":0,"d":0}`))
	f.Add([]byte(`{"r":"x","j":1,"a":2,"k":"nope","s":3,"d":4}`))
	f.Add([]byte(`not json`))
	// Kind names retired with distributed execution: trace files written
	// before then may still carry them, and they must be rejected cleanly.
	for _, k := range []string{"lease", "reassign", "worker_lost"} {
		f.Add([]byte(`{"r":"a/b","j":1,"a":0,"k":"` + k + `","s":10,"d":5,"m":"http://w1"}`))
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		sp, err := ParseSpan(line)
		if err != nil {
			return
		}
		enc := AppendSpanJSONL(nil, sp)
		back, err := ParseSpan(enc)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", enc, err)
		}
		if back != sp {
			t.Fatalf("round trip %v -> %q -> %v", sp, enc, back)
		}
		// Differential check: encoding/json over the wire struct must
		// describe the same span as the hand-rolled encoder.
		std, err := json.Marshal(wireSpan{R: sp.Run, J: sp.Job, A: sp.Attempt, K: sp.Kind.String(), S: sp.Start, D: sp.Dur, M: sp.Detail, E: sp.Err})
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		fromStd, err := ParseSpan(std)
		if err != nil {
			t.Fatalf("parse of std encoding %q failed: %v", std, err)
		}
		if fromStd != sp {
			t.Fatalf("codec divergence: hand-rolled %q vs std %q", enc, std)
		}
		// The stream reader must accept the canonical encoding too.
		sps, err := ReadSpanJSONL(bytes.NewReader(append(enc, '\n')))
		if err != nil || len(sps) != 1 || sps[0] != sp {
			t.Fatalf("ReadSpanJSONL(%q) = %v, %v", enc, sps, err)
		}
	})
}

// FuzzEventJSONL hardens the event codec: arbitrary input must never
// panic, and any line that parses must re-encode and re-parse to the same
// event (a full round trip). Structured seeds exercise the encode side.
func FuzzEventJSONL(f *testing.F) {
	for k := Kind(0); k < numKinds; k++ {
		f.Add(AppendJSONL(nil, Event{Cycle: 12345, Kind: k, A: 1 << 40, B: 7}))
	}
	f.Add([]byte(`{"c":0,"k":"enq","a":0,"b":0}`))
	f.Add([]byte(`{"run":"header"}`))
	f.Add([]byte(`{"c":1,"k":"nope","a":0,"b":0}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := ParseEvent(line)
		if err != nil {
			return
		}
		enc := AppendJSONL(nil, ev)
		back, err := ParseEvent(enc)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", enc, err)
		}
		if back != ev {
			t.Fatalf("round trip %v -> %q -> %v", ev, enc, back)
		}
		// The stream reader must accept the canonical encoding too.
		evs, err := ReadJSONL(bytes.NewReader(append(enc, '\n')))
		if err != nil || len(evs) != 1 || evs[0] != ev {
			t.Fatalf("ReadJSONL(%q) = %v, %v", enc, evs, err)
		}
	})
}
