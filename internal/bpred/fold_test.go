package bpred

import (
	"testing"

	"fdp/internal/xrand"
)

// FoldBrute computes the folded view from the raw bits directly (bit p of
// the low Length bits contributes to folded bit p mod Width): the
// specification the incremental registers are tested against.
func FoldBrute(h *History, s FoldSpec) uint32 {
	var comp uint32
	for p := 0; p < s.Length; p++ {
		comp ^= h.Bit(p) << (uint(p) % uint(s.Width))
	}
	return comp
}

// DriveFolds applies the operations encoded in ops to Histories built over
// specs and, after every operation, checks each raw bit against a plain
// shift-register model, each folded register against FoldBrute, and that
// the padding words beyond HistoryBits stay zero. Each op byte selects, by
// its value mod 6: a direction insert (0, 1; taken when bit 3 is set), a
// taken-branch target insert (2, 3; pc and target drawn from seed), a Save
// (4 with bit 3 clear, or before any Save) or a Restore (4 with bit 3 set),
// or a CopyFrom into the second History, which then becomes the one under
// test (5).
func DriveFolds(tb testing.TB, specs []FoldSpec, seed uint64, ops []byte) {
	tb.Helper()
	hs := [2]*History{NewHistory(specs), NewHistory(specs)}
	cur := 0
	var model, saved [HistoryBits]uint32 // raw bits, newest first
	push := func(b uint32) {
		copy(model[1:], model[:HistoryBits-1])
		model[0] = b
	}
	var snap Snapshot
	haveSnap := false
	rng := xrand.New(seed)
	for k, op := range ops {
		h := hs[cur]
		switch op % 6 {
		case 0, 1:
			taken := op&8 != 0
			h.InsertDir(taken)
			if taken {
				push(1)
			} else {
				push(0)
			}
		case 2, 3:
			pc, target := rng.Uint64(), rng.Uint64()
			hash := TargetHash(pc, target)
			h.InsertTaken(pc, target)
			push(hash >> 1)
			push(hash & 1)
		case 4:
			if op&8 == 0 || !haveSnap {
				h.Save(&snap)
				saved = model
				haveSnap = true
			} else {
				h.Restore(&snap)
				model = saved
			}
		case 5:
			hs[1-cur].CopyFrom(h)
			cur = 1 - cur
		}
		h = hs[cur]
		for p, want := range model {
			if got := h.Bit(p); got != want {
				tb.Fatalf("op %d (%#x): raw bit %d = %d, want %d", k, op, p, got, want)
			}
		}
		for w := histWords; w < rawWords; w++ {
			if h.st.bits[w] != 0 {
				tb.Fatalf("op %d (%#x): padding word %d = %#x", k, op, w, h.st.bits[w])
			}
		}
		for i, s := range specs {
			if got, want := h.Folds()[i], FoldBrute(h, s); got != want {
				tb.Fatalf("op %d (%#x): fold %d %+v = %#x, FoldBrute %#x", k, op, i, s, got, want)
			}
		}
	}
}

// decodeFoldSpecs turns fuzz bytes into a valid spec set: three bytes per
// spec (a repeat flag and the high length bits, the low length bits, the
// width), so runs of one Length — the groups the insert loops share
// outgoing bits across — are as easy to reach as distinct lengths.
func decodeFoldSpecs(b []byte) []FoldSpec {
	var specs []FoldSpec
	for len(b) >= 3 && len(specs) < maxFolds {
		length := 1 + (int(b[0]&0x7f)<<8|int(b[1]))%(HistoryBits-2)
		if b[0]&0x80 != 0 && len(specs) > 0 {
			length = specs[len(specs)-1].Length
		}
		specs = append(specs, FoldSpec{Length: length, Width: 2 + int(b[2])%30})
		b = b[3:]
	}
	return specs
}

// encodeFoldSpecs is decodeFoldSpecs' inverse for the seed corpus.
func encodeFoldSpecs(specs []FoldSpec) []byte {
	var b []byte
	for _, s := range specs {
		l := s.Length - 1
		b = append(b, byte(l>>8), byte(l), byte(s.Width-2))
	}
	return b
}

// FuzzHistoryFolds drives random valid fold sets, repeated lengths
// included, through random insert/save/restore/copy sequences and checks
// every register against FoldBrute after every operation.
func FuzzHistoryFolds(f *testing.F) {
	ops := make([]byte, 400)
	rng := xrand.New(5)
	for i := range ops {
		ops[i] = byte(rng.Uint64())
	}
	for _, specs := range [][]FoldSpec{
		{{Length: 63, Width: 11}, {Length: 63, Width: 8}, {Length: 63, Width: 7}},
		{{Length: 64, Width: 10}, {Length: 127, Width: 12}, {Length: 127, Width: 11}},
		{{Length: 191, Width: 31}, {Length: 191, Width: 2}, {Length: HistoryBits - 2, Width: 13}},
		{{Length: 4, Width: 10}, {Length: 4, Width: 8}, {Length: 4, Width: 7}, {Length: 260, Width: 12}},
		{{Length: 1, Width: 2}, {Length: 2, Width: 31}, {Length: 33, Width: 31}},
	} {
		f.Add(byte(len(specs)-1), append(encodeFoldSpecs(specs), ops...))
	}
	f.Fuzz(func(t *testing.T, n byte, data []byte) {
		nb := 3 * (1 + int(n)%maxFolds)
		if nb > len(data) {
			nb = len(data) / 3 * 3
		}
		specs := decodeFoldSpecs(data[:nb])
		ops := data[nb:]
		if len(ops) > 512 {
			ops = ops[:512]
		}
		DriveFolds(t, specs, uint64(n), ops)
	})
}
