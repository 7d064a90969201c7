// Package indirect implements the ITTAGE indirect-branch target predictor
// (Seznec, CBP-3): a base last-target table plus tagged tables indexed by
// geometrically longer global-history folds, each entry holding a full
// target and a confidence counter.
package indirect

import "fdp/internal/bpred"

// Table sizes one tagged ITTAGE component.
type Table struct {
	HistLen int
	IdxBits int
	TagBits int
}

// Config sizes an ITTAGE predictor.
type Config struct {
	Name     string
	Tables   []Table
	BaseBits int // log2(base last-target table entries)
}

// DefaultConfig returns the Table IV indirect predictor: a 512-entry base
// table and four tagged tables with 8..260-bit histories (the paper uses a
// 260-bit history length for ITTAGE as well).
func DefaultConfig() Config {
	return Config{
		Name: "ittage",
		Tables: []Table{
			{HistLen: 8, IdxBits: 9, TagBits: 9},
			{HistLen: 30, IdxBits: 9, TagBits: 10},
			{HistLen: 90, IdxBits: 9, TagBits: 11},
			{HistLen: 260, IdxBits: 9, TagBits: 12},
		},
		BaseBits: 9,
	}
}

type entry struct {
	tag    uint16
	target uint64
	conf   int8  // 0..3; predict with the entry when > 0
	u      uint8 // 0..3 usefulness
}

// ITTAGE predicts targets of register-indirect branches.
type ITTAGE struct {
	cfg      Config
	base     []uint64 // last-target table
	tables   [][]entry
	foldBase int
	tick     int
}

// New builds the predictor.
func New(cfg Config) *ITTAGE {
	it := &ITTAGE{cfg: cfg, base: make([]uint64, 1<<cfg.BaseBits)}
	for _, tc := range cfg.Tables {
		it.tables = append(it.tables, make([]entry, 1<<tc.IdxBits))
	}
	return it
}

// Name identifies the predictor.
func (it *ITTAGE) Name() string { return it.cfg.Name }

// Specs returns the folded-history views the predictor registers in the
// shared History (index + tag per table).
func (it *ITTAGE) Specs() []bpred.FoldSpec {
	var specs []bpred.FoldSpec
	for _, tc := range it.cfg.Tables {
		specs = append(specs,
			bpred.FoldSpec{Length: tc.HistLen, Width: tc.IdxBits},
			bpred.FoldSpec{Length: tc.HistLen, Width: tc.TagBits},
		)
	}
	return specs
}

// Bind records the predictor's folded-register base within the History.
func (it *ITTAGE) Bind(base int) { it.foldBase = base }

// StorageBits returns the predictor's storage budget in bits (48-bit
// targets, as the paper's 48-bit addresses).
func (it *ITTAGE) StorageBits() int {
	bits := len(it.base) * 48
	for i, tc := range it.cfg.Tables {
		bits += len(it.tables[i]) * (tc.TagBits + 48 + 2 + 2)
	}
	return bits
}

// regs returns ITTAGE's folded registers: index and tag of table i at 2i
// and 2i+1.
func (it *ITTAGE) regs(h *bpred.History) []uint32 {
	return h.Folds()[it.foldBase : it.foldBase+2*len(it.tables)]
}

func (it *ITTAGE) index(i int, pc uint64, regs []uint32) uint32 {
	tc := it.cfg.Tables[i]
	return (uint32(pc>>2) ^ uint32(pc>>(2+uint(tc.IdxBits))) ^ regs[2*i] ^ uint32(i)*0x2545) & (1<<uint(tc.IdxBits) - 1)
}

func (it *ITTAGE) tag(i int, pc uint64, regs []uint32) uint16 {
	tc := it.cfg.Tables[i]
	f := regs[2*i+1]
	return uint16((uint32(pc>>2) ^ f ^ f<<1) & (1<<uint(tc.TagBits) - 1))
}

func (it *ITTAGE) baseIdx(pc uint64) uint32 {
	return uint32(pc>>2) & (1<<uint(it.cfg.BaseBits) - 1)
}

// Predict returns the predicted target for the indirect branch at pc; ok
// is false when the predictor has no information at all (cold base entry).
func (it *ITTAGE) Predict(pc uint64, h *bpred.History) (target uint64, ok bool) {
	regs := it.regs(h)
	for i := len(it.tables) - 1; i >= 0; i-- {
		e := &it.tables[i][it.index(i, pc, regs)]
		if e.tag == it.tag(i, pc, regs) && e.conf > 0 {
			return e.target, true
		}
	}
	t := it.base[it.baseIdx(pc)]
	return t, t != 0
}

// Update trains the predictor with the actual target.
func (it *ITTAGE) Update(pc uint64, h *bpred.History, actual uint64) {
	predicted, _ := it.Predict(pc, h)
	provider := -1
	var provIdx uint32
	regs := it.regs(h)
	for i := len(it.tables) - 1; i >= 0; i-- {
		idx := it.index(i, pc, regs)
		if it.tables[i][idx].tag == it.tag(i, pc, regs) && it.tables[i][idx].conf > 0 {
			provider, provIdx = i, idx
			break
		}
	}
	if provider >= 0 {
		e := &it.tables[provider][provIdx]
		if e.target == actual {
			if e.conf < 3 {
				e.conf++
			}
			if e.u < 3 {
				e.u++
			}
		} else {
			e.conf--
			if e.conf <= 0 {
				e.target = actual
				e.conf = 1
			}
			if e.u > 0 {
				e.u--
			}
		}
	}
	it.base[it.baseIdx(pc)] = actual

	// Allocate a longer-history entry when the overall prediction was
	// wrong.
	if predicted != actual {
		start := provider + 1
		allocated := false
		for i := start; i < len(it.tables); i++ {
			idx := it.index(i, pc, regs)
			if e := &it.tables[i][idx]; e.u == 0 {
				*e = entry{tag: it.tag(i, pc, regs), target: actual, conf: 1}
				allocated = true
				break
			}
		}
		if !allocated {
			for i := start; i < len(it.tables); i++ {
				idx := it.index(i, pc, regs)
				if e := &it.tables[i][idx]; e.u > 0 {
					e.u--
				}
			}
		}
	}

	it.tick++
	if it.tick >= 1<<18 {
		it.tick = 0
		for i := range it.tables {
			for j := range it.tables[i] {
				it.tables[i][j].u >>= 1
			}
		}
	}
}
