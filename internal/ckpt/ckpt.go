// Package ckpt is the deterministic binary codec used to serialize
// post-warmup microarchitectural state (predictor tables, BTB contents,
// cache tags, history registers) into checkpoints. The encoding is
// hand-rolled rather than gob/json because the state lives in unexported
// fields across many packages and must round-trip *bit-exactly*: the
// correctness contract of fast-forward checkpointing is that a restored
// machine re-encodes to the same bytes it was decoded from
// (FuzzCheckpoint in internal/core enforces this differentially).
//
// The format is a flat little-endian stream of fixed-width words with
// length-prefixed slices and explicit section tags. There is no
// reflection and no varint ambiguity, so equal states always produce
// equal bytes — which in turn lets the warmup-check gate compare runs
// byte-for-byte. Integrity (CRC, epoch, quarantine) is layered on top by
// the runner's checkpoint store, not here.
package ckpt

import (
	"encoding/binary"
	"fmt"
)

// Writer appends values to a growing byte buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with some preallocated capacity.
func NewWriter() *Writer { return &Writer{buf: make([]byte, 0, 1<<16)} }

// Bytes returns the encoded stream.
func (w *Writer) Bytes() []byte { return w.buf }

// Tag writes a section marker so decoding failures localize to a
// component instead of smearing across the stream.
func (w *Writer) Tag(t uint32) { w.U32(t) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// I8 appends a signed byte.
func (w *Writer) I8(v int8) { w.U8(uint8(v)) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// I32 appends a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Int appends an int as a 64-bit word.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// U8s appends a length-prefixed byte slice.
func (w *Writer) U8s(s []uint8) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// I8s appends a length-prefixed int8 slice.
func (w *Writer) I8s(s []int8) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.buf = append(w.buf, uint8(v))
	}
}

// U16s appends a length-prefixed uint16 slice.
func (w *Writer) U16s(s []uint16) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
	}
}

// U32s appends a length-prefixed uint32 slice.
func (w *Writer) U32s(s []uint32) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	}
}

// U64s appends a length-prefixed uint64 slice.
func (w *Writer) U64s(s []uint64) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
}

// Reader consumes a stream produced by Writer. Errors are sticky: after
// the first failure every subsequent read returns zero values, and Err
// reports the first failure with its stream offset. Slice readers decode
// into caller-provided storage and fail on length mismatch, which is how
// geometry disagreements between a checkpoint and the restoring machine
// are detected.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps an encoded stream.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records a caller-detected decode error (e.g. a structural count
// mismatch) unless an earlier error is already sticky.
func (r *Reader) Failf(format string, args ...any) { r.fail(format, args...) }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("truncated: need %d bytes, have %d", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Tag checks the next section marker against want.
func (r *Reader) Tag(want uint32) {
	got := r.U32()
	if r.err == nil && got != want {
		r.fail("section tag mismatch: got %#x, want %#x", got, want)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool; any value other than 0 or 1 is an error.
func (r *Reader) Bool() bool {
	v := r.U8()
	if r.err == nil && v > 1 {
		r.fail("bad bool byte %d", v)
	}
	return v == 1
}

// I8 reads a signed byte.
func (r *Reader) I8() int8 { return int8(r.U8()) }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// PeekU32 returns the next uint32 without consuming it — used by decoders
// whose target storage is sized by the stream (growable tables).
func (r *Reader) PeekU32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail("truncated: need 4 bytes, have %d", len(r.buf)-r.off)
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[r.off:])
}

// Count reads the length prefix of a slice whose size the stream chooses
// (a Writer slice of elemBytes-wide elements, decoded element by element).
// It fails — before the caller allocates — when the bytes left cannot
// hold that many elements, so a damaged prefix cannot demand gigabytes.
func (r *Reader) Count(elemBytes int) int {
	n := int(r.U32())
	if r.err == nil && n > (len(r.buf)-r.off)/elemBytes {
		r.fail("count %d of %d-byte elements exceeds the %d bytes left", n, elemBytes, len(r.buf)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads an int stored as a 64-bit word.
func (r *Reader) Int() int { return int(r.U64()) }

func (r *Reader) sliceLen(want int) bool {
	n := r.U32()
	if r.err != nil {
		return false
	}
	if int(n) != want {
		r.fail("slice length mismatch: stream has %d, machine has %d", n, want)
		return false
	}
	return true
}

// U8s decodes a length-prefixed byte slice into dst; the recorded length
// must equal len(dst).
func (r *Reader) U8s(dst []uint8) {
	if !r.sliceLen(len(dst)) {
		return
	}
	b := r.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

// I8s decodes into an int8 slice of exactly the recorded length.
func (r *Reader) I8s(dst []int8) {
	if !r.sliceLen(len(dst)) {
		return
	}
	b := r.take(len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = int8(b[i])
	}
}

// U16s decodes into a uint16 slice of exactly the recorded length.
func (r *Reader) U16s(dst []uint16) {
	if !r.sliceLen(len(dst)) {
		return
	}
	b := r.take(2 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
}

// U32s decodes into a uint32 slice of exactly the recorded length.
func (r *Reader) U32s(dst []uint32) {
	if !r.sliceLen(len(dst)) {
		return
	}
	b := r.take(4 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
}

// U64s decodes into a uint64 slice of exactly the recorded length.
func (r *Reader) U64s(dst []uint64) {
	if !r.sliceLen(len(dst)) {
		return
	}
	b := r.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// Done verifies the whole stream was consumed without error.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("ckpt: %d trailing bytes after decode", len(r.buf)-r.off)
	}
	return nil
}
