// Package bpred implements the branch-direction prediction stack: the
// global-history machinery shared by all history-based predictors (raw
// history bits plus incrementally-folded index registers), the TAGE and
// Gshare direction predictors, and the history-management policies the
// paper compares (taken-only target history vs direction history, §III-A,
// Table V).
package bpred

// HistoryBits is the raw global history register capacity in bits. The
// paper uses up to 280-bit direction history and 260-bit target history.
const HistoryBits = 320

const histWords = HistoryBits / 64

// rawWords pads the raw register to a power of two so that every word
// index the insert loops compute can be masked into range instead of
// bounds-checked. Words histWords and up are never written and stay zero;
// they are not part of a checkpoint.
const rawWords = 8

// maxFolds is the capacity of a History's inline folded-register array.
// The largest shipped fold set (TAGE-SC-L-64KB plus ITTAGE) has 41.
const maxFolds = 48

// FoldSpec describes one folded view of the global history: the low Length
// bits folded (by XOR of Width-bit chunks, with rotation) into Width bits.
// Predictor tables register the FoldSpecs they need at construction time.
type FoldSpec struct {
	Length int // history bits consumed (0 < Length < HistoryBits-1)
	Width  int // folded register width in bits (2..31)
}

// fold holds the constants one folded register's update needs.
//
// An insert of k bits (k = 1 or 2) shifts the register left by k, wraps
// the k overflow bits back to position 0, XORs in the inserted bits and
// removes the raw bits that left the Length-bit window. Those outgoing
// bits sit at raw positions Length and Length+1 after the shift; the
// fold's group reads them once per insert as a 2-bit value o (bit 0 =
// position Length), and term[o] is their precomputed contribution: bit
// Length leaves from Length mod Width, and bit Length+1, which the first
// step of a 2-bit insert already moved one slot further, from
// (Length+1) mod Width. A 1-bit insert reads only position Length, so o
// is 0 or 1 and term[1] is exactly its removal.
type fold struct {
	mask       uint32 // (1 << Width) - 1
	mul1, mul2 uint32 // 1<<(32-Width) and 1<<(33-Width): see wrap
	group      uint8  // index into History.groups
	term       [4]uint32
}

// foldGroup is one run of consecutive folds over the same history Length
// (TAGE's index/tag/tag' triple, ITTAGE's index/tag pair). Its folds
// share the outgoing raw bits, read once per insert: w0 and w1 are the
// words holding raw bits Length and Length+1, and s is Length's shift
// within w0.
type foldGroup struct {
	w0, w1, s uint8
}

// histState is everything an insert mutates, kept inline so that a
// snapshot, a restore and a copy are each one fixed-size struct copy.
type histState struct {
	bits [rawWords]uint64 // newest bit is bit 0 of word 0
	vals [maxFolds]uint32 // folded registers, in FoldSpec order
}

// History is the speculative (or architectural) global history: raw bits
// plus one incrementally-maintained folded register per registered
// FoldSpec. All predictors sharing a frontend share one History so that a
// single insert updates every folded view at once.
//
// The two insertion flavours implement the paper's Eq. 1 (direction
// history) and Eq. 2/3 (taken-only target history; the target hash is
// folded to two bits per event so the register remains a pure shift
// register, preserving O(1) folded updates).
type History struct {
	st     histState
	groups []foldGroup
	folds  []fold
}

// NewHistory creates a History maintaining the given folded views.
func NewHistory(specs []FoldSpec) *History {
	if len(specs) > maxFolds {
		panic("bpred: too many FoldSpecs")
	}
	for _, s := range specs {
		// Length+1 must also be a valid raw-bit position (the fused 2-bit
		// insert reads it), hence the HistoryBits-1 bound.
		if s.Length <= 0 || s.Length >= HistoryBits-1 {
			panic("bpred: FoldSpec.Length out of range")
		}
		// Width 1 is excluded: the fused two-bit insert folds both overflow
		// bits with a single XOR, which needs the register to hold them at
		// distinct positions.
		if s.Width <= 1 || s.Width > 31 {
			panic("bpred: FoldSpec.Width out of range")
		}
	}
	h := &History{folds: make([]fold, len(specs))}
	for i, s := range specs {
		rem := uint(s.Length % s.Width)
		rem1 := uint((s.Length + 1) % s.Width)
		f := &h.folds[i]
		f.mask = 1<<uint(s.Width) - 1
		f.mul1, f.mul2 = 1<<uint(32-s.Width), 1<<uint(33-s.Width)
		for o := range f.term {
			f.term[o] = uint32(o&1)<<rem ^ uint32(o>>1)<<rem1
		}
		if i == 0 || specs[i-1].Length != s.Length {
			h.groups = append(h.groups, foldGroup{
				w0: uint8(s.Length >> 6),
				w1: uint8((s.Length + 1) >> 6),
				s:  uint8(s.Length & 63),
			})
		}
		f.group = uint8(len(h.groups) - 1)
	}
	return h
}

// Folds returns every folded register, in FoldSpec order. Predictors read
// their registers from this slice; it aliases the live state and is only
// valid until the next insert or restore.
func (h *History) Folds() []uint32 { return h.st.vals[:len(h.folds)] }

// Bit returns raw history bit p (0 = newest).
func (h *History) Bit(p int) uint32 {
	return uint32(h.st.bits[p>>6]>>(uint(p)&63)) & 1
}

// wrap returns v >> (Width-k) for a fold's mul = 1<<(31-Width+k): the k
// overflow bits a k-bit shift pushes out of the register, moved to the
// bottom. A multiply takes the place of a variable shift, which on amd64
// must go through CX and forces the insert loops to spill.
func wrap(v, mul uint32) uint32 { return uint32(uint64(v) * uint64(mul) >> 31) }

// InsertBit shifts one bit into the history and updates all folded views.
func (h *History) InsertBit(b uint32) {
	bits := &h.st.bits
	for i := histWords - 1; i > 0; i-- {
		bits[i] = bits[i]<<1 | bits[i-1]>>63
	}
	b &= 1
	bits[0] = bits[0]<<1 | uint64(b)
	var outs [64]uint8 // outgoing bit per group; maxFolds < 64 bounds the groups
	for gi := range h.groups {
		g := &h.groups[gi]
		outs[gi&63] = uint8(bits[g.w0&(rawWords-1)]>>(g.s&63)) & 1
	}
	folds := h.folds
	vals := h.st.vals[:len(folds)]
	for i := range folds {
		f := &folds[i]
		v := vals[i]
		vals[i] = (v<<1^wrap(v, f.mul1))&f.mask ^ b ^ f.term[outs[f.group&63]&3]
	}
}

// insertBits2 shifts two bits into the history (b1 older, b0 newest) and
// updates all folded views, equivalent to InsertBit(b1); InsertBit(b0) but
// with a single raw-register shift, one 2-bit outgoing read per group and
// one fused step per register.
//
// The fusion relies on the fold being GF(2)-linear: shifting the register
// by two leaves the two overflow bits at positions Width and Width+1, and
// wrap moves both to positions 0 and 1 at once (this is why Width >= 2).
// The outgoing pair is read across a word boundary without a branch:
// w1's word shifted left by 1 + (63 - s) lands bit Length+1 at position 1
// exactly when s = 63, and beyond position 1 otherwise.
func (h *History) insertBits2(b1, b0 uint32) {
	bits := &h.st.bits
	for i := histWords - 1; i > 0; i-- {
		bits[i] = bits[i]<<2 | bits[i-1]>>62
	}
	ins := (b1&1)<<1 | b0&1
	bits[0] = bits[0]<<2 | uint64(ins)
	var outs [64]uint8 // outgoing bit pair per group
	for gi := range h.groups {
		g := &h.groups[gi]
		lo := bits[g.w0&(rawWords-1)] >> (g.s & 63)
		hi := bits[g.w1&(rawWords-1)] << 1 << ((63 - g.s) & 63)
		outs[gi&63] = uint8(lo|hi) & 3
	}
	folds := h.folds
	vals := h.st.vals[:len(folds)]
	for i := range folds {
		f := &folds[i]
		v := vals[i]
		vals[i] = (v<<2^wrap(v, f.mul2))&f.mask ^ ins ^ f.term[outs[f.group&63]&3]
	}
}

// InsertDir records a conditional-branch direction (Eq. 1).
func (h *History) InsertDir(taken bool) {
	b := uint32(0)
	if taken {
		b = 1
	}
	h.InsertBit(b)
}

// TargetHash computes the paper's Eq. 2 hash of a taken branch, folded to
// two bits.
func TargetHash(pc, target uint64) uint32 {
	x := (pc >> 2) ^ (target >> 3)
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	return uint32(x) & 3
}

// InsertTaken records a taken branch in target-history mode (Eq. 3): two
// history bits derived from the pc/target hash.
func (h *History) InsertTaken(pc, target uint64) {
	hash := TargetHash(pc, target)
	h.insertBits2(hash>>1, hash&1)
}

// Snapshot is a saved History state, held inline: saving, restoring and
// embedding one (every FTQ entry carries one) needs no allocation.
type Snapshot struct {
	st histState
}

// Save copies the current state into s.
func (h *History) Save(s *Snapshot) { s.st = h.st }

// Restore sets the history back to a previously saved state. The snapshot
// must come from a History with the same FoldSpecs.
func (h *History) Restore(s *Snapshot) { h.st = s.st }

// CopyFrom makes h identical to src (same FoldSpecs required).
func (h *History) CopyFrom(src *History) { h.st = src.st }

// Reset clears all history.
func (h *History) Reset() { h.st = histState{} }
