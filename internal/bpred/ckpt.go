package bpred

import "fdp/internal/ckpt"

// This file serializes predictor training state for fast-forward warmup
// checkpoints. Only state that influences future predictions (or future
// training) is encoded; statistics that the core resets at measurement
// start are not. Geometry (table sizes, fold specs) is NOT encoded — the
// restoring machine is built from the same training-relevant Config, and
// the length-checked slice decoders reject a checkpoint whose geometry
// disagrees.

// Section tags keep decode failures attributable to a component.
const (
	tagHistory    = 0x48495354  // "HIST"
	tagTAGE       = 0x54414745  // "TAGE"
	tagGshare     = 0x47534852  // "GSHR"
	tagBimodal    = 0x42494d44  // "BIMD"
	tagPerceptron = 0x50455243  // "PERC"
	tagSCL        = 0x5343_4c31 // "SCL1"
	tagLoop       = 0x4c4f4f50  // "LOOP"
)

// SaveState encodes the raw history bits and every folded register.
func (h *History) SaveState(w *ckpt.Writer) {
	w.Tag(tagHistory)
	w.U64s(h.st.bits[:histWords])
	w.U32s(h.Folds())
}

// LoadState restores state written by SaveState into a History built with
// the same FoldSpecs.
func (h *History) LoadState(r *ckpt.Reader) {
	r.Tag(tagHistory)
	r.U64s(h.st.bits[:histWords])
	r.U32s(h.Folds())
}

// SaveState encodes the bimodal counters, every tagged entry, the
// use-alt and tick meta-state, and the allocation RNG, so that training
// resumed from a restored TAGE is indistinguishable from one trained
// in-place.
func (t *TAGE) SaveState(w *ckpt.Writer) {
	w.Tag(tagTAGE)
	w.U8s(t.bimodal)
	w.Int(len(t.tables))
	for i := range t.tables {
		es := t.tables[i].entries
		w.U32(uint32(len(es)))
		for j := range es {
			w.U16(es[j].tag)
			w.I8(es[j].ctr)
			w.U8(es[j].u)
		}
	}
	w.I8(t.useAlt)
	w.Int(t.tick)
	w.U64(t.rng.State())
}

// LoadState restores state written by SaveState.
func (t *TAGE) LoadState(r *ckpt.Reader) {
	r.Tag(tagTAGE)
	r.U8s(t.bimodal)
	if n := r.Int(); r.Err() == nil && n != len(t.tables) {
		r.Failf("tage: table count mismatch: %d vs %d", n, len(t.tables))
		return
	}
	for i := range t.tables {
		es := t.tables[i].entries
		if n := r.U32(); r.Err() == nil && int(n) != len(es) {
			r.Failf("tage: table %d entry count mismatch: %d vs %d", i, n, len(es))
			return
		}
		for j := range es {
			es[j].tag = r.U16()
			es[j].ctr = r.I8()
			es[j].u = r.U8()
		}
	}
	t.useAlt = r.I8()
	t.tick = r.Int()
	t.rng.SetState(r.U64())
}

// SaveState encodes the gshare counter table.
func (g *Gshare) SaveState(w *ckpt.Writer) {
	w.Tag(tagGshare)
	w.U8s(g.counters)
}

// LoadState restores state written by SaveState.
func (g *Gshare) LoadState(r *ckpt.Reader) {
	r.Tag(tagGshare)
	r.U8s(g.counters)
}

// SaveState encodes the bimodal counter table.
func (b *Bimodal) SaveState(w *ckpt.Writer) {
	w.Tag(tagBimodal)
	w.U8s(b.counters)
}

// LoadState restores state written by SaveState.
func (b *Bimodal) LoadState(r *ckpt.Reader) {
	r.Tag(tagBimodal)
	r.U8s(b.counters)
}

// SaveState encodes every weight vector.
func (p *Perceptron) SaveState(w *ckpt.Writer) {
	w.Tag(tagPerceptron)
	w.Int(len(p.weights))
	for i := range p.weights {
		w.I8s(p.weights[i])
	}
}

// LoadState restores state written by SaveState.
func (p *Perceptron) LoadState(r *ckpt.Reader) {
	r.Tag(tagPerceptron)
	if n := r.Int(); r.Err() == nil && n != len(p.weights) {
		r.Failf("perceptron: vector count mismatch: %d vs %d", n, len(p.weights))
		return
	}
	for i := range p.weights {
		r.I8s(p.weights[i])
	}
}

// SaveState encodes the loop-predictor entries. The Hits counter is
// included because Predict advances it, and training replays during a
// checkpointed warmup must leave the predictor bit-identical to a cold
// warmup's.
func (l *LoopPredictor) SaveState(w *ckpt.Writer) {
	w.Tag(tagLoop)
	w.Int(len(l.entries))
	for i := range l.entries {
		e := &l.entries[i]
		w.U16(e.tag)
		w.U16(e.trip)
		w.U16(e.count)
		w.U8(e.conf)
		w.U8(e.age)
	}
	w.U64(l.Hits)
}

// LoadState restores state written by SaveState.
func (l *LoopPredictor) LoadState(r *ckpt.Reader) {
	r.Tag(tagLoop)
	if n := r.Int(); r.Err() == nil && n != len(l.entries) {
		r.Failf("loop: entry count mismatch: %d vs %d", n, len(l.entries))
		return
	}
	for i := range l.entries {
		e := &l.entries[i]
		e.tag = r.U16()
		e.trip = r.U16()
		e.count = r.U16()
		e.conf = r.U8()
		e.age = r.U8()
	}
	l.Hits = r.U64()
}

// SaveState encodes the combined predictor: TAGE, loop predictor,
// statistical-corrector counters, the adaptive threshold pair, and the
// override counters Update advances through its internal Predict calls.
func (p *TAGESCL) SaveState(w *ckpt.Writer) {
	w.Tag(tagSCL)
	p.tage.SaveState(w)
	p.loop.SaveState(w)
	w.Int(len(p.sc))
	for i := range p.sc {
		w.I8s(p.sc[i].ctr)
	}
	w.I32(p.thresh)
	w.I32(p.tcounter)
	w.U64(p.LoopOverrides)
	w.U64(p.SCOverrides)
}

// LoadState restores state written by SaveState.
func (p *TAGESCL) LoadState(r *ckpt.Reader) {
	r.Tag(tagSCL)
	p.tage.LoadState(r)
	p.loop.LoadState(r)
	if n := r.Int(); r.Err() == nil && n != len(p.sc) {
		r.Failf("scl: corrector table count mismatch: %d vs %d", n, len(p.sc))
		return
	}
	for i := range p.sc {
		r.I8s(p.sc[i].ctr)
	}
	p.thresh = r.I32()
	p.tcounter = r.I32()
	p.LoopOverrides = r.U64()
	p.SCOverrides = r.U64()
}

// StatePredictor is implemented by direction predictors whose training
// state can be checkpointed. PerfectDir is stateless and deliberately not
// on this list; the core skips it.
type StatePredictor interface {
	SaveState(w *ckpt.Writer)
	LoadState(r *ckpt.Reader)
}
