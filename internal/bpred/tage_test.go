package bpred

import (
	"testing"

	"fdp/internal/xrand"
)

// harness runs predict/update over a synthetic outcome sequence with a
// shared history updated by ground truth (direction mode) and returns the
// accuracy over the last half (after warmup).
func harness(t *testing.T, p DirPredictor, seq func(i int) (pc uint64, taken bool), n int) float64 {
	t.Helper()
	h := NewHistory(p.Specs())
	p.Bind(0)
	correct, measured := 0, 0
	for i := 0; i < n; i++ {
		pc, taken := seq(i)
		pred := p.Predict(pc, h)
		p.Update(pc, h, taken)
		h.InsertDir(taken)
		if i >= n/2 {
			measured++
			if pred == taken {
				correct++
			}
		}
	}
	return float64(correct) / float64(measured)
}

func TestTAGELearnsPattern(t *testing.T) {
	// A branch with period-4 pattern TTTN: far beyond bimodal, trivial
	// for short TAGE histories.
	acc := harness(t, NewTAGE(TAGE18KB()), func(i int) (uint64, bool) {
		return 0x40_0000, i%4 != 3
	}, 20000)
	if acc < 0.99 {
		t.Errorf("TAGE pattern accuracy = %.3f, want >= 0.99", acc)
	}
}

func TestTAGELearnsLongCorrelation(t *testing.T) {
	// Two interleaved branches: A follows a period-5 pattern, B repeats
	// A's outcome from 3 A-instances earlier. The combined sequence is
	// deterministic but only predictable through global history.
	var past []bool
	acc := harness(t, NewTAGE(TAGE18KB()), func(i int) (uint64, bool) {
		if i%2 == 0 {
			taken := (i/2)%5 < 2
			past = append(past, taken)
			return 0x1000, taken
		}
		k := len(past) - 3
		if k < 0 {
			return 0x2000, false
		}
		return 0x2000, past[k]
	}, 40000)
	if acc < 0.95 {
		t.Errorf("TAGE correlated accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestTAGEBeatsBimodalOnPattern(t *testing.T) {
	seq := func(i int) (uint64, bool) { return 0x8000, i%3 == 0 } // TNN
	tage := harness(t, NewTAGE(TAGE18KB()), seq, 20000)
	bim := harness(t, NewBimodal(12), seq, 20000)
	if tage <= bim {
		t.Errorf("TAGE %.3f not better than bimodal %.3f on pattern", tage, bim)
	}
}

func TestTAGEBiasedBranches(t *testing.T) {
	// Many distinct strongly-biased branches: bimodal-style behaviour.
	rng := xrand.New(9)
	acc := harness(t, NewTAGE(TAGE18KB()), func(i int) (uint64, bool) {
		pc := uint64(0x40_0000 + (i%256)*4)
		return pc, rng.Bool(0.98)
	}, 50000)
	if acc < 0.95 {
		t.Errorf("TAGE biased accuracy = %.3f", acc)
	}
}

func TestTAGEConfigSizes(t *testing.T) {
	small := NewTAGE(TAGE9KB()).StorageBits()
	base := NewTAGE(TAGE18KB()).StorageBits()
	big := NewTAGE(TAGE36KB()).StorageBits()
	if !(small < base && base < big) {
		t.Errorf("sizes not monotone: %d %d %d", small, base, big)
	}
	// The baseline should be in the vicinity of 18KB (within 40%).
	kb := float64(base) / 8 / 1024
	if kb < 11 || kb > 25 {
		t.Errorf("baseline TAGE size = %.1fKB, want ~18KB", kb)
	}
	// Geometric history lengths: increasing, max near 260.
	tables := TAGE18KB().Tables
	for i := 1; i < len(tables); i++ {
		if tables[i].HistLen <= tables[i-1].HistLen {
			t.Errorf("table %d histlen %d not increasing", i, tables[i].HistLen)
		}
	}
	if got := tables[len(tables)-1].HistLen; got != 260 {
		t.Errorf("max history length = %d, want 260", got)
	}
}

func TestTAGEDeterministic(t *testing.T) {
	run := func() []bool {
		p := NewTAGE(TAGE18KB())
		h := NewHistory(p.Specs())
		p.Bind(0)
		rng := xrand.New(4)
		var preds []bool
		for i := 0; i < 5000; i++ {
			pc := uint64(0x1000 + (i%97)*4)
			taken := rng.Bool(0.6)
			preds = append(preds, p.Predict(pc, h))
			p.Update(pc, h, taken)
			h.InsertDir(taken)
		}
		return preds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestGshareLearnsBias(t *testing.T) {
	acc := harness(t, Gshare8KB(), func(i int) (uint64, bool) {
		return uint64(0x2000 + (i%64)*4), i%64 < 48 // per-pc constant
	}, 30000)
	if acc < 0.95 {
		t.Errorf("gshare accuracy = %.3f", acc)
	}
}

func TestGshareWeakerThanTAGEOnHistory(t *testing.T) {
	// Period-24 pattern on one pc: TAGE's long histories win.
	seq := func(i int) (uint64, bool) { return 0x3000, (i/3)%8 == 0 }
	tage := harness(t, NewTAGE(TAGE18KB()), seq, 40000)
	gsh := harness(t, Gshare8KB(), seq, 40000)
	if tage < gsh {
		t.Errorf("TAGE %.3f < gshare %.3f on long pattern", tage, gsh)
	}
}

func TestGshareStorage(t *testing.T) {
	if got := Gshare8KB().StorageBits(); got != 8*1024*8 {
		t.Errorf("gshare storage = %d bits, want 64Ki", got)
	}
}

func TestPerfectDir(t *testing.T) {
	outcomes := map[uint64]bool{0x10: true, 0x20: false}
	p := &PerfectDir{Oracle: func(pc uint64) bool { return outcomes[pc] }}
	if !p.Predict(0x10, nil) || p.Predict(0x20, nil) {
		t.Error("PerfectDir does not follow oracle")
	}
	if p.StorageBits() != 0 || len(p.Specs()) != 0 {
		t.Error("PerfectDir claims storage or history")
	}
	p.Update(0x10, nil, false) // must be a no-op, not a panic
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestBimodalBasics(t *testing.T) {
	b := NewBimodal(10)
	h := NewHistory(nil)
	// Initialized weakly taken.
	if !b.Predict(0x4, h) {
		t.Error("initial prediction not taken")
	}
	b.Update(0x4, h, false)
	b.Update(0x4, h, false)
	if b.Predict(0x4, h) {
		t.Error("did not learn not-taken")
	}
	// Saturation: never out of range.
	for i := 0; i < 10; i++ {
		b.Update(0x4, h, true)
	}
	if !b.Predict(0x4, h) {
		t.Error("did not learn taken")
	}
	if b.Name() != "bimodal" || b.StorageBits() != 2048 {
		t.Errorf("meta: %s %d", b.Name(), b.StorageBits())
	}
}

func TestPredictorsHandleWrongPathPCs(t *testing.T) {
	// Predict must be safe for arbitrary PCs (wrong-path addresses).
	preds := []DirPredictor{NewTAGE(TAGE18KB()), Gshare8KB(), NewBimodal(8)}
	for _, p := range preds {
		h := NewHistory(p.Specs())
		p.Bind(0)
		for _, pc := range []uint64{0, 1, 3, 0xffff_ffff_ffff_fffc, 0xdead_beef} {
			p.Predict(pc, h) // no panic
		}
	}
}

func BenchmarkTAGEPredict(b *testing.B) {
	p := NewTAGE(TAGE18KB())
	h := NewHistory(p.Specs())
	p.Bind(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(uint64(0x40_0000+(i%1024)*4), h)
	}
}

func BenchmarkTAGEUpdate(b *testing.B) {
	p := NewTAGE(TAGE18KB())
	h := NewHistory(p.Specs())
	p.Bind(0)
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Update(uint64(0x40_0000+(i%1024)*4), h, rng.Bool(0.5))
	}
}

func TestPredictorMetaMethods(t *testing.T) {
	// Exercise the trivial interface plumbing on every predictor.
	preds := []DirPredictor{
		NewTAGE(TAGE18KB()), Gshare8KB(), NewBimodal(8),
		TAGESCL24KB(), Perceptron8KB(), &PerfectDir{Oracle: func(uint64) bool { return true }},
	}
	for _, p := range preds {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
		p.Bind(0) // must not panic
		h := NewHistory(p.Specs())
		if len(h.Folds()) != len(p.Specs()) {
			t.Errorf("%s: len(Folds()) %d != specs %d", p.Name(), len(h.Folds()), len(p.Specs()))
		}
		p.Predict(0x40, h)
		p.Update(0x40, h, true)
		p.Update(0x40, h, false)
	}
}

func TestGshareUpdateSaturation(t *testing.T) {
	g := Gshare8KB()
	h := NewHistory(g.Specs())
	g.Bind(0)
	for i := 0; i < 10; i++ {
		g.Update(0x40, h, true)
	}
	if !g.Predict(0x40, h) {
		t.Error("saturated-taken counter predicts not-taken")
	}
	for i := 0; i < 10; i++ {
		g.Update(0x40, h, false)
	}
	if g.Predict(0x40, h) {
		t.Error("saturated-not-taken counter predicts taken")
	}
}

func TestTAGEAllocationAging(t *testing.T) {
	// Hammer mispredictions on many branches: the allocator must age
	// usefulness counters rather than deadlock when all candidates are
	// useful. Verified by accuracy still improving on a final stable phase.
	p := NewTAGE(TAGE9KB())
	h := NewHistory(p.Specs())
	p.Bind(0)
	rng := xrand.New(21)
	for i := 0; i < 60000; i++ {
		pc := uint64(0x1000 + (i%4096)*4)
		taken := rng.Bool(0.5) // chaos phase: constant allocation pressure
		p.Update(pc, h, taken)
		h.InsertDir(taken)
	}
	correct := 0
	const n = 20000
	for i := 0; i < n; i++ {
		pc := uint64(0x9000_0000 + (i%16)*4)
		taken := i%4 == 0
		if p.Predict(pc, h) == taken {
			correct++
		}
		p.Update(pc, h, taken)
		h.InsertDir(taken)
	}
	if acc := float64(correct) / n; acc < 0.90 {
		t.Errorf("post-chaos accuracy %.3f; allocator wedged?", acc)
	}
}
