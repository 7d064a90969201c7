package trace

import "fdp/internal/ckpt"

const tagTrace = 0x54524331 // "TRC1"

// SaveState encodes the replay position: the index of the next record.
// It is the whole state of a replay (see Advance).
func (s *Stream) SaveState(w *ckpt.Writer) {
	w.Tag(tagTrace)
	w.Int(s.pos)
}

// LoadState moves a replay of the same trace to the position written by
// SaveState. An index outside the trace fails the reader.
func (s *Stream) LoadState(r *ckpt.Reader) {
	r.Tag(tagTrace)
	pos := r.Int()
	if r.Err() != nil {
		return
	}
	if pos < 0 || pos >= len(s.t.recs) {
		r.Failf("trace: record index %d out of range [0,%d)", pos, len(s.t.recs))
		return
	}
	s.pos = pos
}
