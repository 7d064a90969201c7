package bpred

// This file implements TAGE-SC-L (Seznec, CBP-4/5): TAGE plus a loop
// predictor and a GEHL-style statistical corrector. The paper's baseline
// uses plain TAGE; TAGE-SC-L is the natural "more frontend resources"
// extension commercial cores ship, included here as an additional Fig. 12
// comparison point.

// scTable is one statistical-corrector component: signed counters indexed
// by pc hashed with a fold of the recent history.
type scTable struct {
	ctr     []int8 // 6-bit signed counters: -32..31
	idxBits int
	histLen int // 0 = bias table (pc only)
	foldIdx int // index into the shared History folds; -1 for bias
}

// SCConfig sizes the statistical corrector.
type SCConfig struct {
	IdxBits  int
	HistLens []int // history lengths of the non-bias tables
}

// DefaultSCConfig returns a small (~6KB) corrector.
func DefaultSCConfig() SCConfig {
	return SCConfig{IdxBits: 12, HistLens: []int{5, 15, 43}}
}

// TAGESCL combines TAGE with a loop predictor and a statistical
// corrector. It implements DirPredictor.
type TAGESCL struct {
	name string
	tage *TAGE
	loop *LoopPredictor
	sc   []scTable

	thresh   int32
	tcounter int32 // dynamic threshold adaptation

	// LoopOverrides and SCOverrides count how often each component
	// changed the TAGE prediction.
	LoopOverrides uint64
	SCOverrides   uint64
}

// NewTAGESCL builds the combined predictor around the given TAGE config.
func NewTAGESCL(name string, tcfg TAGEConfig, scfg SCConfig) *TAGESCL {
	p := &TAGESCL{
		name:   name,
		tage:   NewTAGE(tcfg),
		loop:   NewLoopPredictor(9),
		thresh: 6,
	}
	for _, hl := range append([]int{0}, scfg.HistLens...) {
		p.sc = append(p.sc, scTable{
			ctr:     make([]int8, 1<<scfg.IdxBits),
			idxBits: scfg.IdxBits,
			histLen: hl,
			foldIdx: -1,
		})
	}
	return p
}

// TAGESCL64KB returns the full-budget configuration.
func TAGESCL64KB() *TAGESCL {
	return NewTAGESCL("tage-sc-l-64kb", TAGE36KB(), DefaultSCConfig())
}

// TAGESCL24KB returns a budget near the paper's baseline TAGE.
func TAGESCL24KB() *TAGESCL {
	return NewTAGESCL("tage-sc-l-24kb", TAGE18KB(), DefaultSCConfig())
}

// Name implements DirPredictor.
func (p *TAGESCL) Name() string { return p.name }

// Specs implements DirPredictor: TAGE's folds followed by one fold per
// non-bias SC table.
func (p *TAGESCL) Specs() []FoldSpec {
	specs := p.tage.Specs()
	for _, t := range p.sc {
		if t.histLen > 0 {
			specs = append(specs, FoldSpec{Length: t.histLen, Width: t.idxBits})
		}
	}
	return specs
}

// Bind implements DirPredictor.
func (p *TAGESCL) Bind(base int) {
	p.tage.Bind(base)
	fold := base + len(p.tage.Specs())
	for i := range p.sc {
		if p.sc[i].histLen > 0 {
			p.sc[i].foldIdx = fold
			fold++
		}
	}
}

// StorageBits implements DirPredictor.
func (p *TAGESCL) StorageBits() int {
	bits := p.tage.StorageBits() + p.loop.StorageBits()
	for _, t := range p.sc {
		bits += len(t.ctr) * 6
	}
	return bits
}

func (t *scTable) index(pc uint64, h *History) uint32 {
	idx := uint32(pc >> 2)
	if t.foldIdx >= 0 {
		idx ^= h.Folds()[t.foldIdx]
	}
	return idx & (1<<uint(t.idxBits) - 1)
}

// scSum computes the corrector sum, with the TAGE prediction contributing
// a strong centring term.
func (p *TAGESCL) scSum(pc uint64, h *History, tagePred bool) int32 {
	var sum int32
	if tagePred {
		sum += 8
	} else {
		sum -= 8
	}
	for i := range p.sc {
		sum += 2*int32(p.sc[i].ctr[p.sc[i].index(pc, h)]) + 1
	}
	return sum
}

// Predict implements DirPredictor: loop predictor overrides when
// confident; otherwise the statistical corrector may flip a weak TAGE
// prediction.
func (p *TAGESCL) Predict(pc uint64, h *History) bool {
	if taken, confident := p.loop.Predict(pc); confident {
		p.LoopOverrides++
		return taken
	}
	tagePred := p.tage.Predict(pc, h)
	sum := p.scSum(pc, h, tagePred)
	scPred := sum >= 0
	if scPred != tagePred && abs32(sum) >= p.thresh {
		p.SCOverrides++
		return scPred
	}
	return tagePred
}

// Update implements DirPredictor.
func (p *TAGESCL) Update(pc uint64, h *History, taken bool) {
	p.loop.Update(pc, taken)
	tagePred := p.tage.Predict(pc, h)
	sum := p.scSum(pc, h, tagePred)
	scUsed := (sum >= 0) != tagePred && abs32(sum) >= p.thresh
	finalPred := tagePred
	if scUsed {
		finalPred = sum >= 0
	}
	// Train the corrector on mispredictions and low-confidence sums.
	if finalPred != taken || abs32(sum) < p.thresh+6 {
		for i := range p.sc {
			c := &p.sc[i].ctr[p.sc[i].index(pc, h)]
			if taken {
				if *c < 31 {
					*c++
				}
			} else if *c > -32 {
				*c--
			}
		}
	}
	// Dynamic threshold: if SC overrides are hurting, raise the bar.
	if scUsed {
		if finalPred == taken && tagePred != taken {
			p.tcounter--
		} else if finalPred != taken && tagePred == taken {
			p.tcounter++
		}
		if p.tcounter >= 4 {
			p.tcounter = 0
			if p.thresh < 30 {
				p.thresh += 2
			}
		} else if p.tcounter <= -4 {
			p.tcounter = 0
			if p.thresh > 4 {
				p.thresh -= 2
			}
		}
	}
	p.tage.Update(pc, h, taken)
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}
