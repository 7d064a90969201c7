package bpred_test

import (
	"testing"

	"fdp/internal/bpred"
	"fdp/internal/indirect"
	"fdp/internal/xrand"
)

// shippedFoldSets returns the History fold set of every shipped direction
// predictor that registers folds, each followed by ITTAGE's, in the order
// the core assembles them.
func shippedFoldSets() map[string][]bpred.FoldSpec {
	ittage := indirect.New(indirect.DefaultConfig()).Specs()
	sets := map[string][]bpred.FoldSpec{}
	for _, p := range []bpred.DirPredictor{
		bpred.NewTAGE(bpred.TAGE9KB()),
		bpred.NewTAGE(bpred.TAGE18KB()),
		bpred.NewTAGE(bpred.TAGE36KB()),
		bpred.TAGESCL24KB(),
		bpred.TAGESCL64KB(),
		bpred.Gshare8KB(),
	} {
		sets[p.Name()] = append(p.Specs(), ittage...)
	}
	return sets
}

// defaultFoldSet is the DefaultConfig frontend's fold set: TAGE-18KB then
// ITTAGE.
func defaultFoldSet() []bpred.FoldSpec {
	return shippedFoldSets()["tage-18kb"]
}

// edgeLengths put Length or Length+1 on a 64-bit word boundary, or at the
// top of the raw register (HistoryBits-2 is the longest valid Length).
var edgeLengths = []int{63, 64, 127, 191, bpred.HistoryBits - 2}

// TestShippedFoldSetsMatchBrute is the differential test of the insert
// engine on the fold sets that ship: every register equals FoldBrute after
// every operation of a seeded mix of direction and target inserts,
// snapshots, restores and copies. Each set also carries one fold at every
// edge length; a separate set puts two folds of each edge length through
// the shared outgoing-bit read.
func TestShippedFoldSetsMatchBrute(t *testing.T) {
	sets := shippedFoldSets()
	for name, specs := range sets {
		for i, l := range edgeLengths {
			specs = append(specs, bpred.FoldSpec{Length: l, Width: 7 + 6*i})
		}
		sets[name] = specs
	}
	var pairs []bpred.FoldSpec
	for i, l := range edgeLengths {
		pairs = append(pairs, bpred.FoldSpec{Length: l, Width: 11 + i}, bpred.FoldSpec{Length: l, Width: 2 + 7*i})
	}
	sets["edge-pairs"] = pairs
	rng := xrand.New(14)
	ops := make([]byte, 1500)
	for i := range ops {
		ops[i] = byte(rng.Uint64())
	}
	for name, specs := range sets {
		t.Run(name, func(t *testing.T) {
			bpred.DriveFolds(t, specs, 14, ops)
		})
	}
}

func BenchmarkInsertBit(b *testing.B) {
	h := bpred.NewHistory(defaultFoldSet())
	for i := 0; i < b.N; i++ {
		h.InsertBit(uint32(i>>1^i>>3) & 1)
	}
}

func BenchmarkInsertTaken(b *testing.B) {
	h := bpred.NewHistory(defaultFoldSet())
	for i := 0; i < b.N; i++ {
		pc := uint64(i) * 0x9e3779b97f4a7c15
		h.InsertTaken(pc, pc>>7)
	}
}
