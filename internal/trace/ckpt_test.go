package trace

import (
	"bytes"
	"testing"

	"fdp/internal/ckpt"
)

// TestStreamStateRoundTrip: a replay loaded from SaveState continues
// exactly where the saved one was, and an index outside the trace is
// rejected instead of panicking in Next.
func TestStreamStateRoundTrip(t *testing.T) {
	tr, err := Read(bytes.NewReader(writeTrace(t, testWorkload(), 5000)))
	if err != nil {
		t.Fatal(err)
	}
	a := tr.NewStream()
	a.Advance(12_345) // wraps the 5000-record trace twice
	w := ckpt.NewWriter()
	a.SaveState(w)

	b := tr.NewStream()
	r := ckpt.NewReader(w.Bytes())
	b.LoadState(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("replay diverged at +%d: %+v vs %+v", i, da, db)
		}
	}

	for _, pos := range []int{-1, tr.Len()} {
		w := ckpt.NewWriter()
		w.Tag(tagTrace)
		w.Int(pos)
		r := ckpt.NewReader(w.Bytes())
		tr.NewStream().LoadState(r)
		if r.Err() == nil {
			t.Errorf("record index %d accepted", pos)
		}
	}
}
