package synth

import "fdp/internal/ckpt"

const tagStream = 0x53594e31 // "SYN1"

// SaveState encodes the stream's position: PC, restart entry, executed
// count and call stack; the mix scheduler (phase, active component,
// quantum and each component's suspended context); and the runtime state
// of every behaviour site, followed by the number of those sites. Sites
// without a behaviour model (behNone) never leave NewStream's zero state,
// so they are skipped — which keeps the section to a fraction of the
// image size. The active component's
// suspended context is skipped too: the scheduler overwrites it from the
// live PC and stack before it ever reads it.
func (s *Stream) SaveState(w *ckpt.Writer) {
	w.Tag(tagStream)
	w.U64(s.pc)
	w.U64(s.entry)
	w.U64(s.Executed)
	w.U64s(s.stack)
	w.Int(s.phase)
	w.Int(s.active)
	w.U64(s.quantum)
	w.U32(uint32(len(s.ctxs)))
	for j := range s.ctxs {
		w.U64(s.ctxs[j].ran)
		if j != s.active {
			w.U64(s.ctxs[j].pc)
			w.U64s(s.ctxs[j].stack)
		}
	}
	sites := 0
	for i := range s.w.info {
		if s.w.info[i].kind == behNone {
			continue
		}
		sites++
		st := &s.state[i]
		w.U64(st.rng.State())
		w.I32(st.pos)
		w.I32(st.curTrip)
		w.I32(st.cur)
	}
	w.U32(uint32(sites))
}

// LoadState moves a stream of the same workload to the position written
// by SaveState, whatever the stream's current position. Every PC and
// return address is checked against the image and every index against
// its table, so a damaged section fails the reader instead of panicking
// later in Next. On failure the stream is left unusable.
func (s *Stream) LoadState(r *ckpt.Reader) {
	r.Tag(tagStream)
	pc, entry, executed := r.U64(), r.U64(), r.U64()
	stack := s.loadStack(r)
	phase, active, quantum := r.Int(), r.Int(), r.U64()
	nctx := int(r.U32())
	if r.Err() != nil {
		return
	}
	if !s.w.img.Contains(pc) || !s.w.img.Contains(entry) {
		r.Failf("synth: pc %#x or entry %#x outside the image", pc, entry)
		return
	}
	var ctxs []mixCtx
	if len(s.w.phases) == 0 {
		if phase != 0 || active != 0 || nctx != 0 {
			r.Failf("synth: mix state (phase %d, active %d, %d contexts) in a plain workload", phase, active, nctx)
			return
		}
	} else {
		if phase < 0 || phase >= len(s.w.phases) {
			r.Failf("synth: phase %d out of range [0,%d)", phase, len(s.w.phases))
			return
		}
		if nctx != len(s.w.phases[phase].comps) || active < 0 || active >= nctx {
			r.Failf("synth: %d contexts, active %d; phase %d has %d components",
				nctx, active, phase, len(s.w.phases[phase].comps))
			return
		}
		ctxs = make([]mixCtx, nctx)
		for j := range ctxs {
			ctxs[j].ran = r.U64()
			if j == active {
				ctxs[j].pc, ctxs[j].stack = pc, stack
				continue
			}
			ctxs[j].pc = r.U64()
			ctxs[j].stack = s.loadStack(r)
			if r.Err() == nil && !s.w.img.Contains(ctxs[j].pc) {
				r.Failf("synth: context %d pc %#x outside the image", j, ctxs[j].pc)
			}
			if r.Err() != nil {
				return
			}
		}
	}
	sites := 0
	for i := range s.w.info {
		if r.Err() != nil {
			return
		}
		bi := &s.w.info[i]
		if bi.kind == behNone {
			continue
		}
		sites++
		st := &s.state[i]
		st.rng.SetState(r.U64())
		st.pos = r.I32()
		st.curTrip = r.I32()
		st.cur = r.I32()
		if (bi.kind == behIndirect || bi.kind == behRotate) && (st.cur < 0 || int(st.cur) >= len(bi.targets)) {
			r.Failf("synth: site %d indirect target %d out of range [0,%d)", i, st.cur, len(bi.targets))
		}
	}
	if n := int(r.U32()); r.Err() == nil && n != sites {
		r.Failf("synth: %d behaviour sites, workload has %d", n, sites)
	}
	if r.Err() != nil {
		return
	}
	s.pc, s.entry, s.Executed, s.stack = pc, entry, executed, stack
	s.phase, s.active, s.quantum, s.ctxs = phase, active, quantum, ctxs
}

// loadStack decodes one call stack, checking its length against the bytes
// left before allocating and every return address against the image.
func (s *Stream) loadStack(r *ckpt.Reader) []uint64 {
	n := r.Count(8)
	if r.Err() != nil {
		return nil
	}
	stack := make([]uint64, n, max(n, 64))
	for i := range stack {
		stack[i] = r.U64()
		if r.Err() == nil && !s.w.img.Contains(stack[i]) {
			r.Failf("synth: return address %#x outside the image", stack[i])
		}
		if r.Err() != nil {
			return nil
		}
	}
	return stack
}
