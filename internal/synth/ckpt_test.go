package synth

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"fdp/internal/ckpt"
)

// ckptWorkloads is the quick experiment set plus the two example scenario
// specs whose mix scheduler carries state across the 1M-instruction mark.
func ckptWorkloads(t *testing.T) []*Workload {
	t.Helper()
	ws, err := Resolve("server_a", "server_b", "client_a", "client_b", "spec_a", "spec_b")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"deploy_churn.yaml", "blended_fleet.yaml"} {
		w, err := LoadSpecFile("../../examples/workloads/" + f)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

func saveState(s *Stream) []byte {
	w := ckpt.NewWriter()
	s.SaveState(w)
	return w.Bytes()
}

func loadState(s *Stream, b []byte) error {
	r := ckpt.NewReader(b)
	s.LoadState(r)
	return r.Done()
}

// TestStreamStateRoundTrip: a fresh stream loaded from SaveState yields
// the same instructions as the stream it was saved from, and re-encodes
// to the same bytes. The positions sit just before and just after
// deploy_churn's first phase boundary, so the comparison runs through a
// phase switch from both sides.
func TestStreamStateRoundTrip(t *testing.T) {
	const follow = 300_000
	for _, w := range ckptWorkloads(t) {
		for _, at := range []uint64{999_990, 1_010_007} {
			ref := w.NewStream()
			ref.Advance(at)
			b := saveState(ref)
			got := w.NewStream()
			if err := loadState(got, b); err != nil {
				t.Fatalf("%s@%d: load: %v", w.Name, at, err)
			}
			if again := saveState(got); !bytes.Equal(b, again) {
				t.Fatalf("%s@%d: re-encoding differs (%d vs %d bytes)", w.Name, at, len(b), len(again))
			}
			for i := 0; i < follow; i++ {
				if dr, dg := ref.Next(), got.Next(); dr != dg {
					t.Fatalf("%s@%d: diverged at +%d: %+v vs %+v", w.Name, at, i, dr, dg)
				}
			}
			if ref.Executed != got.Executed {
				t.Fatalf("%s@%d: Executed %d vs %d", w.Name, at, ref.Executed, got.Executed)
			}
		}
	}
}

// TestStreamStateRejectsHostile: each way a damaged section could point
// the stream outside its image or tables fails the reader at load time
// rather than panicking later in Next.
func TestStreamStateRejectsHostile(t *testing.T) {
	plain := ByName("server_a")
	mixed, err := LoadSpecFile("../../examples/workloads/deploy_churn.yaml")
	if err != nil {
		t.Fatal(err)
	}
	indirectSite := func(w *Workload) int {
		for i := range w.info {
			if w.info[i].kind == behIndirect && len(w.info[i].targets) > 1 {
				return i
			}
		}
		t.Fatalf("%s has no multi-target indirect site", w.Name)
		return 0
	}
	// patch overwrites the little-endian uint32 at off.
	patch := func(off int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[off:], v) }
	}
	cases := []struct {
		name  string
		w     *Workload
		state func(s *Stream)
		bytes func(w *Workload, b []byte)
		want  string
	}{
		{name: "pc", w: plain, state: func(s *Stream) { s.pc = s.w.img.Limit() }, want: "outside the image"},
		{name: "entry", w: plain, state: func(s *Stream) { s.entry = 3 }, want: "outside the image"},
		{name: "return address", w: plain, state: func(s *Stream) { s.stack = append(s.stack, s.w.img.Limit()) }, want: "return address"},
		{name: "indirect cur", w: plain, state: func(s *Stream) {
			i := indirectSite(s.w)
			s.state[i].cur = int32(len(s.w.info[i].targets))
		}, want: "indirect target"},
		{name: "negative indirect cur", w: plain, state: func(s *Stream) { s.state[indirectSite(s.w)].cur = -1 }, want: "indirect target"},
		{name: "plain phase", w: plain, state: func(s *Stream) { s.phase = 1 }, want: "plain workload"},
		{name: "phase", w: mixed, state: func(s *Stream) { s.phase = len(s.w.phases) }, want: "phase"},
		{name: "active", w: mixed, state: func(s *Stream) { s.active = len(s.ctxs) }, want: "contexts, active"},
		{name: "context pc", w: mixed, state: func(s *Stream) { s.ctxs[1-s.active].pc = 0 }, want: "pc 0x0 outside the image"},
		{name: "stack length", w: plain, bytes: func(w *Workload, b []byte) { patch(4+3*8, 0xffff_fff0)(b) }, want: "exceeds"},
		{name: "site count", w: plain, bytes: func(w *Workload, b []byte) {
			off := len(b) - 4 // the site count ends the section
			patch(off, binary.LittleEndian.Uint32(b[off:])+1)(b)
		}, want: "behaviour sites"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.w.NewStream()
			s.Advance(5000)
			if tc.state != nil {
				tc.state(s)
			}
			b := saveState(s)
			if tc.bytes != nil {
				tc.bytes(tc.w, b)
			}
			err := loadState(tc.w.NewStream(), b)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("load err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}
