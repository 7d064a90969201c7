package bpred

import (
	"math"

	"fdp/internal/xrand"
)

// DirPredictor is a conditional-branch direction predictor. Predict is
// called speculatively in the prediction pipeline for *every* instruction
// (EV8-style, to produce FTQ direction hints); Update is called once per
// retired conditional branch with the architectural history the frontend
// would have had at prediction time.
type DirPredictor interface {
	// Predict returns the predicted direction of the instruction at pc
	// given the current global history.
	Predict(pc uint64, h *History) bool
	// Update trains the predictor with the actual outcome.
	Update(pc uint64, h *History, taken bool)
	// Specs returns the folded-history views the predictor needs; the
	// frontend registers them in its History before calling Bind.
	Specs() []FoldSpec
	// Bind tells the predictor where its folded registers start within
	// the shared History.
	Bind(base int)
	// Name identifies the predictor for reports.
	Name() string
	// StorageBits returns the predictor's storage budget in bits.
	StorageBits() int
}

// TAGETable describes one tagged TAGE component.
type TAGETable struct {
	HistLen int // history length in bits
	IdxBits int // log2(entries)
	TagBits int // tag width
}

// TAGEConfig sizes a TAGE predictor.
type TAGEConfig struct {
	Name        string
	Tables      []TAGETable
	BimodalBits int // log2(bimodal entries), 2-bit counters
}

// geometricTables builds n tagged tables with history lengths growing
// geometrically from minLen to maxLen.
func geometricTables(n, minLen, maxLen, idxBits int) []TAGETable {
	tables := make([]TAGETable, n)
	ratio := float64(maxLen) / float64(minLen)
	for i := 0; i < n; i++ {
		l := float64(minLen)
		if n > 1 {
			l = float64(minLen) * math.Pow(ratio, float64(i)/float64(n-1))
		}
		tag := 8 + i/2
		if tag > 12 {
			tag = 12
		}
		tables[i] = TAGETable{HistLen: int(l + 0.5), IdxBits: idxBits, TagBits: tag}
	}
	return tables
}

// TAGE9KB returns the half-size configuration of Fig. 12.
func TAGE9KB() TAGEConfig {
	return TAGEConfig{Name: "tage-9kb", Tables: geometricTables(10, 4, 260, 9), BimodalBits: 11}
}

// TAGE18KB returns the baseline predictor (Table IV): ten tagged tables
// with 4..260-bit geometric history lengths plus a 4K-entry bimodal base.
func TAGE18KB() TAGEConfig {
	return TAGEConfig{Name: "tage-18kb", Tables: geometricTables(10, 4, 260, 10), BimodalBits: 12}
}

// TAGE36KB returns the double-size configuration of Fig. 12.
func TAGE36KB() TAGEConfig {
	return TAGEConfig{Name: "tage-36kb", Tables: geometricTables(10, 4, 260, 11), BimodalBits: 13}
}

type tageEntry struct {
	tag uint16
	ctr int8  // signed 3-bit counter: -4..3, taken if >= 0
	u   uint8 // 2-bit usefulness
}

// tageTable is one tagged component with its index/tag constants
// precomputed, so the per-table probe of lookup — run for every predicted
// branch — reads one contiguous record instead of chasing the config and a
// slice-of-slices.
type tageTable struct {
	entries  []tageEntry
	idxMask  uint32
	tagMask  uint32
	idxShift uint8  // 2 + IdxBits, the pc shift mixed into the index
	salt     uint32 // per-table index perturbation (i * 0x9e37)
}

// TAGE is a TAgged GEometric-history-length direction predictor (Seznec),
// the paper's primary predictor. It registers three folded views per table
// (index, tag, tag') in the shared History.
type TAGE struct {
	cfg      TAGEConfig
	bimodal  []uint8 // 2-bit counters
	tables   []tageTable
	foldBase int
	useAlt   int8 // use-alt-on-newly-allocated counter
	tick     int
	rng      *xrand.SplitMix64
}

// NewTAGE builds the predictor.
func NewTAGE(cfg TAGEConfig) *TAGE {
	t := &TAGE{
		cfg:     cfg,
		bimodal: make([]uint8, 1<<cfg.BimodalBits),
		rng:     xrand.New(0x7a9e), // deterministic allocation noise
	}
	for i := range t.bimodal {
		t.bimodal[i] = 2 // weakly taken
	}
	for i, tc := range cfg.Tables {
		t.tables = append(t.tables, tageTable{
			entries:  make([]tageEntry, 1<<tc.IdxBits),
			idxMask:  1<<uint(tc.IdxBits) - 1,
			tagMask:  1<<uint(tc.TagBits) - 1,
			idxShift: uint8(2 + tc.IdxBits),
			salt:     uint32(i) * 0x9e37,
		})
	}
	return t
}

// Name implements DirPredictor.
func (t *TAGE) Name() string { return t.cfg.Name }

// Specs implements DirPredictor: index fold + two tag folds per table.
func (t *TAGE) Specs() []FoldSpec {
	var specs []FoldSpec
	for _, tc := range t.cfg.Tables {
		specs = append(specs,
			FoldSpec{Length: tc.HistLen, Width: tc.IdxBits},
			FoldSpec{Length: tc.HistLen, Width: tc.TagBits},
			FoldSpec{Length: tc.HistLen, Width: tc.TagBits - 1},
		)
	}
	return specs
}

// Bind implements DirPredictor.
func (t *TAGE) Bind(base int) { t.foldBase = base }

// StorageBits implements DirPredictor.
func (t *TAGE) StorageBits() int {
	bits := len(t.bimodal) * 2
	for i, tc := range t.cfg.Tables {
		bits += len(t.tables[i].entries) * (tc.TagBits + 3 + 2)
	}
	return bits
}

// regs returns TAGE's folded registers: index, tag and tag' of table i
// at 3i, 3i+1 and 3i+2.
func (t *TAGE) regs(h *History) []uint32 {
	return h.Folds()[t.foldBase : t.foldBase+3*len(t.tables)]
}

func (t *TAGE) index(i int, pc uint64, regs []uint32) uint32 {
	tb := &t.tables[i]
	idx := uint32(pc>>2) ^ uint32(pc>>uint(tb.idxShift)) ^ regs[3*i] ^ tb.salt
	return idx & tb.idxMask
}

func (t *TAGE) tag(i int, pc uint64, regs []uint32) uint16 {
	tb := &t.tables[i]
	r := regs[3*i+1 : 3*i+3]
	return uint16((uint32(pc>>2) ^ r[0] ^ r[1]<<1) & tb.tagMask)
}

func (t *TAGE) bimodalIdx(pc uint64) uint32 {
	return uint32(pc>>2) & (1<<uint(t.cfg.BimodalBits) - 1)
}

// lookup finds the provider (longest-history hit) and alternate
// predictions. provider == -1 means bimodal only.
func (t *TAGE) lookup(pc uint64, h *History) (provider, alt int, provIdx, altIdx uint32) {
	provider, alt = -1, -1
	regs := t.regs(h)
	for i := len(t.tables) - 1; i >= 0; i-- {
		idx := t.index(i, pc, regs)
		if t.tables[i].entries[idx].tag == t.tag(i, pc, regs) {
			if provider < 0 {
				provider, provIdx = i, idx
			} else {
				alt, altIdx = i, idx
				break
			}
		}
	}
	return
}

func (t *TAGE) bimodalPred(pc uint64) bool { return t.bimodal[t.bimodalIdx(pc)] >= 2 }

// Predict implements DirPredictor.
func (t *TAGE) Predict(pc uint64, h *History) bool {
	provider, alt, provIdx, altIdx := t.lookup(pc, h)
	if provider < 0 {
		return t.bimodalPred(pc)
	}
	e := &t.tables[provider].entries[provIdx]
	// Newly-allocated weak entries may be worse than the alternate
	// prediction; a global counter arbitrates (USE_ALT_ON_NA).
	if (e.ctr == 0 || e.ctr == -1) && e.u == 0 && t.useAlt >= 0 {
		if alt >= 0 {
			return t.tables[alt].entries[altIdx].ctr >= 0
		}
		return t.bimodalPred(pc)
	}
	return e.ctr >= 0
}

// Update implements DirPredictor: standard TAGE training with allocation
// on mispredictions.
func (t *TAGE) Update(pc uint64, h *History, taken bool) {
	provider, alt, provIdx, altIdx := t.lookup(pc, h)
	var provPred, altPred bool
	if alt >= 0 {
		altPred = t.tables[alt].entries[altIdx].ctr >= 0
	} else {
		altPred = t.bimodalPred(pc)
	}
	pred := altPred
	weakProvider := false
	if provider >= 0 {
		e := &t.tables[provider].entries[provIdx]
		provPred = e.ctr >= 0
		weakProvider = (e.ctr == 0 || e.ctr == -1) && e.u == 0
		if weakProvider && t.useAlt >= 0 {
			pred = altPred
		} else {
			pred = provPred
		}
	}
	mispred := pred != taken

	if provider >= 0 {
		e := &t.tables[provider].entries[provIdx]
		// Track whether alt would have done better for weak entries.
		if weakProvider && provPred != altPred {
			if provPred == taken && t.useAlt > -8 {
				t.useAlt--
			} else if altPred == taken && t.useAlt < 7 {
				t.useAlt++
			}
		}
		// Usefulness: provider differs from alt and was right/wrong.
		if provPred != altPred {
			if provPred == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		updateCtr3(&e.ctr, taken)
		// Also train bimodal when the provider entry is weak, keeping the
		// base predictor warm.
		if e.u == 0 {
			t.updateBimodal(pc, taken)
		}
	} else {
		t.updateBimodal(pc, taken)
	}

	// Allocate a new entry on misprediction (unless the provider is the
	// longest table).
	if mispred && provider < len(t.tables)-1 {
		t.allocate(pc, h, provider, taken)
	}

	// Periodic graceful reset of usefulness counters.
	t.tick++
	if t.tick >= 1<<18 {
		t.tick = 0
		for i := range t.tables {
			ents := t.tables[i].entries
			for j := range ents {
				ents[j].u >>= 1
			}
		}
	}
}

func (t *TAGE) allocate(pc uint64, h *History, provider int, taken bool) {
	start := provider + 1
	// Probabilistically skip ahead so allocations spread across lengths.
	if start < len(t.tables)-1 && t.rng.Bool(0.5) {
		start++
	}
	regs := t.regs(h)
	for i := start; i < len(t.tables); i++ {
		idx := t.index(i, pc, regs)
		e := &t.tables[i].entries[idx]
		if e.u == 0 {
			e.tag = t.tag(i, pc, regs)
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
	}
	// No free entry: age the candidates.
	for i := start; i < len(t.tables); i++ {
		idx := t.index(i, pc, regs)
		if e := &t.tables[i].entries[idx]; e.u > 0 {
			e.u--
		}
	}
}

func (t *TAGE) updateBimodal(pc uint64, taken bool) {
	c := &t.bimodal[t.bimodalIdx(pc)]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

func updateCtr3(c *int8, taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > -4 {
		*c--
	}
}
