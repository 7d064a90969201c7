package bpred

// Gshare is McFarling's gshare predictor: a single table of 2-bit counters
// indexed by pc XOR a fold of the most recent history bits. The paper uses
// an 8KB gshare with 15-bit history as the weaker comparison point of
// Fig. 12.
type Gshare struct {
	name     string
	counters []uint8
	idxBits  int
	histBits int
	foldBase int
}

// NewGshare builds a gshare with 2^idxBits 2-bit counters using histBits of
// global history. Gshare8KB uses idxBits=15 (32K counters = 8KB).
func NewGshare(name string, idxBits, histBits int) *Gshare {
	g := &Gshare{
		name:     name,
		counters: make([]uint8, 1<<idxBits),
		idxBits:  idxBits,
		histBits: histBits,
	}
	for i := range g.counters {
		g.counters[i] = 2
	}
	return g
}

// Gshare8KB returns the Fig. 12 configuration: 8KB of counters, 15-bit
// history.
func Gshare8KB() *Gshare { return NewGshare("gshare-8kb", 15, 15) }

// Name implements DirPredictor.
func (g *Gshare) Name() string { return g.name }

// Specs implements DirPredictor.
func (g *Gshare) Specs() []FoldSpec {
	return []FoldSpec{{Length: g.histBits, Width: g.idxBits}}
}

// Bind implements DirPredictor.
func (g *Gshare) Bind(base int) { g.foldBase = base }

// StorageBits implements DirPredictor.
func (g *Gshare) StorageBits() int { return len(g.counters) * 2 }

func (g *Gshare) index(pc uint64, h *History) uint32 {
	return (uint32(pc>>2) ^ h.Folds()[g.foldBase]) & (1<<uint(g.idxBits) - 1)
}

// Predict implements DirPredictor.
func (g *Gshare) Predict(pc uint64, h *History) bool {
	return g.counters[g.index(pc, h)] >= 2
}

// Update implements DirPredictor.
func (g *Gshare) Update(pc uint64, h *History, taken bool) {
	c := &g.counters[g.index(pc, h)]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// PerfectDir is the oracle direction predictor of Fig. 12: it consults the
// workload's behaviour model directly. Oracle must return the direction
// the branch at pc will take on its next execution (wrong-path queries may
// return anything; those instructions are squashed).
type PerfectDir struct {
	Oracle func(pc uint64) bool
}

// Name implements DirPredictor.
func (p *PerfectDir) Name() string { return "perfect-dir" }

// Specs implements DirPredictor.
func (p *PerfectDir) Specs() []FoldSpec { return nil }

// Bind implements DirPredictor.
func (p *PerfectDir) Bind(int) {}

// StorageBits implements DirPredictor.
func (p *PerfectDir) StorageBits() int { return 0 }

// Predict implements DirPredictor.
func (p *PerfectDir) Predict(pc uint64, _ *History) bool { return p.Oracle(pc) }

// Update implements DirPredictor.
func (p *PerfectDir) Update(uint64, *History, bool) {}

// Bimodal is a plain per-PC 2-bit-counter predictor; it serves as the
// history-free floor in sensitivity studies and tests.
type Bimodal struct {
	counters []uint8
	idxBits  int
}

// NewBimodal builds a bimodal predictor with 2^idxBits counters.
func NewBimodal(idxBits int) *Bimodal {
	b := &Bimodal{counters: make([]uint8, 1<<idxBits), idxBits: idxBits}
	for i := range b.counters {
		b.counters[i] = 2
	}
	return b
}

// Name implements DirPredictor.
func (b *Bimodal) Name() string { return "bimodal" }

// Specs implements DirPredictor.
func (b *Bimodal) Specs() []FoldSpec { return nil }

// Bind implements DirPredictor.
func (b *Bimodal) Bind(int) {}

// StorageBits implements DirPredictor.
func (b *Bimodal) StorageBits() int { return len(b.counters) * 2 }

func (b *Bimodal) index(pc uint64) uint32 {
	return uint32(pc>>2) & (1<<uint(b.idxBits) - 1)
}

// Predict implements DirPredictor.
func (b *Bimodal) Predict(pc uint64, _ *History) bool {
	return b.counters[b.index(pc)] >= 2
}

// Update implements DirPredictor.
func (b *Bimodal) Update(pc uint64, _ *History, taken bool) {
	c := &b.counters[b.index(pc)]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}
