package bpred

import (
	"testing"
	"testing/quick"

	"fdp/internal/xrand"
)

// Property: every predictor survives arbitrary predict/update interleaving
// on arbitrary PCs without panicking, and stays deterministic.
func TestPredictorsRobustUnderRandomTraffic(t *testing.T) {
	build := []func() DirPredictor{
		func() DirPredictor { return NewTAGE(TAGE18KB()) },
		func() DirPredictor { return Gshare8KB() },
		func() DirPredictor { return NewBimodal(10) },
		func() DirPredictor { return TAGESCL24KB() },
		func() DirPredictor { return Perceptron8KB() },
	}
	for _, mk := range build {
		run := func(seed uint64) uint64 {
			p := mk()
			h := NewHistory(p.Specs())
			p.Bind(0)
			rng := xrand.New(seed)
			var sig uint64
			for i := 0; i < 3000; i++ {
				pc := rng.Uint64() &^ 3
				taken := rng.Bool(0.5)
				if p.Predict(pc, h) {
					sig = sig*3 + 1
				} else {
					sig = sig * 3
				}
				p.Update(pc, h, taken)
				h.InsertDir(taken)
			}
			return sig
		}
		a, b := run(42), run(42)
		if a != b {
			t.Errorf("%s nondeterministic under random traffic", mk().Name())
		}
	}
}

// Property: a loop predictor trained on any stable trip in [2, 300]
// becomes confident and predicts the activation exactly.
func TestLoopPredictorAnyStableTrip(t *testing.T) {
	f := func(raw uint16) bool {
		trip := 2 + int(raw)%299
		l := NewLoopPredictor(4)
		pc := uint64(0x40_0000)
		for act := 0; act < 6; act++ {
			for i := 0; i < trip-1; i++ {
				l.Update(pc, true)
			}
			l.Update(pc, false)
		}
		for i := 0; i < trip-1; i++ {
			taken, conf := l.Predict(pc)
			if !conf || !taken {
				return false
			}
			l.Update(pc, true)
		}
		taken, conf := l.Predict(pc)
		return conf && !taken
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: InsertTaken is equivalent to two InsertBits of the hash, so
// any mix of dir and taken events keeps folded registers consistent with
// the brute-force fold.
func TestMixedInsertConsistency(t *testing.T) {
	specs := []FoldSpec{{Length: 37, Width: 9}, {Length: 260, Width: 12}}
	f := func(ops []uint8) bool {
		h := NewHistory(specs)
		rng := xrand.New(1)
		for _, op := range ops {
			if op%2 == 0 {
				h.InsertDir(op%4 == 0)
			} else {
				h.InsertTaken(rng.Uint64()&^3, rng.Uint64()&^3)
			}
		}
		for i, s := range specs {
			if h.Folds()[i] != FoldBrute(h, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Save/Restore is an exact inverse regardless of the operations
// in between.
func TestSnapshotIsExactInverse(t *testing.T) {
	specs := []FoldSpec{{Length: 100, Width: 11}, {Length: 7, Width: 5}}
	f := func(pre, mid []uint8) bool {
		h := NewHistory(specs)
		for _, b := range pre {
			h.InsertBit(uint32(b) & 1)
		}
		var snap Snapshot
		h.Save(&snap)
		want0, want1 := h.Folds()[0], h.Folds()[1]
		wantBits := h.st.bits
		for _, b := range mid {
			h.InsertBit(uint32(b) & 1)
		}
		h.Restore(&snap)
		return h.Folds()[0] == want0 && h.Folds()[1] == want1 && h.st.bits == wantBits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TAGE-SC-L's corrector must never make a strongly-predictable branch
// worse than TAGE alone by more than noise.
func TestSCLNoRegressionOnEasyBranches(t *testing.T) {
	seq := func(i int) (uint64, bool) { return uint64(0x100 + (i%64)*4), (i % 64) < 60 }
	scl := sclHarness(t, TAGESCL24KB(), seq, 30000)
	tage := sclHarness(t, NewTAGE(TAGE18KB()), seq, 30000)
	if scl < tage-0.02 {
		t.Errorf("SC-L %.4f much worse than TAGE %.4f on easy branches", scl, tage)
	}
}
