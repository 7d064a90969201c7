package ckpt

import (
	"bytes"
	"strings"
	"testing"
)

// TestRoundTrip encodes one value of every type and decodes them back.
func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Tag(0xF00D)
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.I8(-5)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.I32(-123456)
	w.U64(1 << 60)
	w.Int(-1)
	w.U8s([]uint8{1, 2, 3})
	w.I8s([]int8{-1, 0, 1})
	w.U16s([]uint16{10, 20})
	w.U32s([]uint32{100})
	w.U64s([]uint64{1, 1 << 40})

	r := NewReader(w.Bytes())
	r.Tag(0xF00D)
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.I8(); got != -5 {
		t.Errorf("I8 = %d", got)
	}
	if got := r.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.I32(); got != -123456 {
		t.Errorf("I32 = %d", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.Int(); got != -1 {
		t.Errorf("Int = %d", got)
	}
	u8s := make([]uint8, 3)
	r.U8s(u8s)
	if !bytes.Equal(u8s, []uint8{1, 2, 3}) {
		t.Errorf("U8s = %v", u8s)
	}
	i8s := make([]int8, 3)
	r.I8s(i8s)
	if i8s[0] != -1 || i8s[2] != 1 {
		t.Errorf("I8s = %v", i8s)
	}
	u16s := make([]uint16, 2)
	r.U16s(u16s)
	if u16s[0] != 10 || u16s[1] != 20 {
		t.Errorf("U16s = %v", u16s)
	}
	u32s := make([]uint32, 1)
	r.U32s(u32s)
	if u32s[0] != 100 {
		t.Errorf("U32s = %v", u32s)
	}
	u64s := make([]uint64, 2)
	r.U64s(u64s)
	if u64s[1] != 1<<40 {
		t.Errorf("U64s = %v", u64s)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestStickyErrors: the first failure wins, later reads return zeros and
// do not overwrite it.
func TestStickyErrors(t *testing.T) {
	w := NewWriter()
	w.Tag(1)
	r := NewReader(w.Bytes())
	r.Tag(2) // mismatch — first error
	r.U64()  // would also fail (truncated), must not replace the first
	if got := r.U32(); got != 0 {
		t.Errorf("read after error = %d, want 0", got)
	}
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "tag mismatch") {
		t.Errorf("Err = %v, want the tag mismatch", err)
	}
}

// TestTruncation: every reader fails cleanly at end of stream.
func TestTruncation(t *testing.T) {
	r := NewReader([]byte{1, 2})
	if r.U32(); r.Err() == nil {
		t.Fatal("U32 on a 2-byte stream did not fail")
	}
	if !strings.Contains(r.Err().Error(), "truncated") {
		t.Errorf("Err = %v, want truncation", r.Err())
	}
}

// TestSliceLengthMismatch: decoding into wrongly sized storage is how
// geometry disagreements between checkpoint and machine are caught.
func TestSliceLengthMismatch(t *testing.T) {
	w := NewWriter()
	w.U32s([]uint32{1, 2, 3})
	r := NewReader(w.Bytes())
	r.U32s(make([]uint32, 2))
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "length mismatch") {
		t.Errorf("Err = %v, want length mismatch", r.Err())
	}
}

// TestBadBool: only 0 and 1 decode as bools.
func TestBadBool(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "bad bool") {
		t.Errorf("Err = %v, want bad bool", r.Err())
	}
}

// TestDoneTrailing: leftover bytes after a structurally valid decode are
// an error — a checkpoint must be consumed exactly.
func TestDoneTrailing(t *testing.T) {
	w := NewWriter()
	w.U32(7)
	r := NewReader(append(w.Bytes(), 0xFF))
	if r.U32() != 7 {
		t.Fatal("U32 mis-decoded")
	}
	if err := r.Done(); err == nil {
		t.Error("Done accepted trailing bytes")
	}
}

// TestPeekU32 does not consume and agrees with the following U32.
func TestPeekU32(t *testing.T) {
	w := NewWriter()
	w.U32(42)
	r := NewReader(w.Bytes())
	if p := r.PeekU32(); p != 42 {
		t.Errorf("PeekU32 = %d", p)
	}
	if v := r.U32(); v != 42 {
		t.Errorf("U32 after peek = %d", v)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

// TestFailf records caller-detected structural errors with the offset.
func TestFailf(t *testing.T) {
	r := NewReader(nil)
	r.Failf("count %d out of range", 9)
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "count 9 out of range") {
		t.Errorf("Err = %v", r.Err())
	}
}

// TestCount accepts a prefix the remaining bytes can hold and rejects one
// they cannot, without consuming the elements.
func TestCount(t *testing.T) {
	w := NewWriter()
	w.U64s([]uint64{5, 6})
	r := NewReader(w.Bytes())
	if n := r.Count(8); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
	if r.U64() != 5 || r.U64() != 6 {
		t.Error("elements mis-decoded after Count")
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}

	w = NewWriter()
	w.U32(1 << 30) // a damaged prefix claiming a gigabyte slice
	w.U64(1)
	r = NewReader(w.Bytes())
	if n := r.Count(8); n != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "exceeds") {
		t.Errorf("Count = %d, Err = %v; want 0 and an oversize error", n, r.Err())
	}
}
