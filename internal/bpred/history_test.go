package bpred

import (
	"testing"
	"testing/quick"

	"fdp/internal/xrand"
)

func TestNewHistoryValidation(t *testing.T) {
	for _, s := range []FoldSpec{
		{Length: 0, Width: 10},
		{Length: HistoryBits, Width: 10},
		{Length: 10, Width: 0},
		{Length: 10, Width: 32},
		{Length: HistoryBits - 1, Width: 10},
		{Length: 10, Width: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistory(%+v) did not panic", s)
				}
			}()
			NewHistory([]FoldSpec{s})
		}()
	}
}

func TestNewHistoryCapacity(t *testing.T) {
	specs := make([]FoldSpec, maxFolds+1)
	for i := range specs {
		specs[i] = FoldSpec{Length: 10, Width: 5}
	}
	if h := NewHistory(specs[:maxFolds]); len(h.Folds()) != maxFolds {
		t.Errorf("len(Folds()) = %d, want %d", len(h.Folds()), maxFolds)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewHistory with maxFolds+1 specs did not panic")
		}
	}()
	NewHistory(specs)
}

func TestInsertBitShiftsRaw(t *testing.T) {
	h := NewHistory(nil)
	h.InsertBit(1)
	h.InsertBit(0)
	h.InsertBit(1)
	// Newest bit is Bit(0): sequence (newest first) = 1,0,1.
	if h.Bit(0) != 1 || h.Bit(1) != 0 || h.Bit(2) != 1 {
		t.Errorf("bits = %d%d%d", h.Bit(0), h.Bit(1), h.Bit(2))
	}
}

func TestRawShiftAcrossWords(t *testing.T) {
	h := NewHistory(nil)
	h.InsertBit(1)
	for i := 0; i < 64; i++ {
		h.InsertBit(0)
	}
	if h.Bit(64) != 1 {
		t.Error("bit did not cross word boundary")
	}
	if h.Bit(63) != 0 || h.Bit(65) != 0 {
		t.Error("neighbours polluted")
	}
}

// The incremental folded registers must always equal the brute-force fold.
func TestFoldedMatchesBruteForce(t *testing.T) {
	specs := []FoldSpec{
		{Length: 5, Width: 3},
		{Length: 13, Width: 7},
		{Length: 64, Width: 10},
		{Length: 130, Width: 11},
		{Length: 260, Width: 12},
		{Length: 300, Width: 13},
		{Length: 20, Width: 20}, // width == length
		{Length: 33, Width: 31},
	}
	h := NewHistory(specs)
	rng := xrand.New(99)
	for step := 0; step < 2000; step++ {
		h.InsertBit(uint32(rng.Uint64() & 1))
		for i, s := range specs {
			if got, want := h.Folds()[i], FoldBrute(h, s); got != want {
				t.Fatalf("step %d spec %+v: folded=%#x brute=%#x", step, s, got, want)
			}
		}
	}
}

func TestInsertTakenUpdatesFolds(t *testing.T) {
	specs := []FoldSpec{{Length: 50, Width: 9}}
	h := NewHistory(specs)
	rng := xrand.New(7)
	for i := 0; i < 500; i++ {
		h.InsertTaken(rng.Uint64()&^3, rng.Uint64()&^3)
		if got, want := h.Folds()[0], FoldBrute(h, specs[0]); got != want {
			t.Fatalf("after taken %d: folded=%#x brute=%#x", i, got, want)
		}
	}
}

func TestTargetHashDependsOnBoth(t *testing.T) {
	// The two-bit hash must react to pc and target changes somewhere.
	seenPC := false
	seenTgt := false
	for i := uint64(0); i < 256; i++ {
		if TargetHash(i<<2, 0x1000) != TargetHash(0, 0x1000) {
			seenPC = true
		}
		if TargetHash(0x400, i<<3) != TargetHash(0x400, 0) {
			seenTgt = true
		}
	}
	if !seenPC || !seenTgt {
		t.Errorf("hash insensitive: pc=%v tgt=%v", seenPC, seenTgt)
	}
	if TargetHash(0x1234, 0x5678) > 3 {
		t.Error("hash wider than 2 bits")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	specs := []FoldSpec{{Length: 40, Width: 8}, {Length: 120, Width: 12}}
	h := NewHistory(specs)
	rng := xrand.New(3)
	for i := 0; i < 100; i++ {
		h.InsertBit(uint32(rng.Uint64() & 1))
	}
	var snap Snapshot
	h.Save(&snap)
	want0, want1 := h.Folds()[0], h.Folds()[1]
	for i := 0; i < 57; i++ {
		h.InsertBit(1)
	}
	h.Restore(&snap)
	if h.Folds()[0] != want0 || h.Folds()[1] != want1 {
		t.Error("folded registers not restored")
	}
	// And the restored state must stay consistent under further inserts.
	h.InsertBit(1)
	if h.Folds()[1] != FoldBrute(h, specs[1]) {
		t.Error("restored state inconsistent with raw bits")
	}
}

// Snapshots hold their state inline: saving into a fresh Snapshot,
// restoring and copying allocate nothing.
func TestSnapshotReusesBuffer(t *testing.T) {
	a := NewHistory([]FoldSpec{{Length: 10, Width: 5}, {Length: 200, Width: 12}})
	b := NewHistory([]FoldSpec{{Length: 10, Width: 5}, {Length: 200, Width: 12}})
	allocs := testing.AllocsPerRun(100, func() {
		var snap Snapshot
		a.InsertTaken(0x1000, 0x2040)
		a.Save(&snap)
		a.InsertBit(1)
		a.Restore(&snap)
		b.CopyFrom(a)
	})
	if allocs != 0 {
		t.Errorf("Save/Restore/CopyFrom allocated %.1f times per run", allocs)
	}
	if b.Folds()[1] != FoldBrute(b, FoldSpec{Length: 200, Width: 12}) {
		t.Error("copied state inconsistent with raw bits")
	}
}

func TestCopyFromAndReset(t *testing.T) {
	specs := []FoldSpec{{Length: 30, Width: 6}}
	a := NewHistory(specs)
	b := NewHistory(specs)
	for i := 0; i < 25; i++ {
		a.InsertBit(1)
	}
	b.CopyFrom(a)
	if b.Folds()[0] != a.Folds()[0] || b.Bit(3) != a.Bit(3) {
		t.Error("CopyFrom incomplete")
	}
	a.Reset()
	if a.Folds()[0] != 0 || a.Bit(0) != 0 {
		t.Error("Reset incomplete")
	}
}

// Property: inserting the same bit sequence into two histories yields
// identical folded state regardless of interleaved snapshots.
func TestHistoryDeterminism(t *testing.T) {
	specs := []FoldSpec{{Length: 100, Width: 11}}
	f := func(seq []byte) bool {
		a := NewHistory(specs)
		b := NewHistory(specs)
		var snap Snapshot
		for _, x := range seq {
			a.InsertBit(uint32(x) & 1)
			b.Save(&snap) // noise operations on b
			b.Restore(&snap)
			b.InsertBit(uint32(x) & 1)
		}
		return a.Folds()[0] == b.Folds()[0] && a.st.bits == b.st.bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
