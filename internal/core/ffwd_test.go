package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"fdp/internal/ckpt"
	"fdp/internal/program"
	"fdp/internal/synth"
)

// ffwdWL is a small synthetic workload shared by the checkpoint tests.
func ffwdWL() *synth.Workload {
	p := synth.ServerParams(0)
	p.Name = "ffwd"
	p.Funcs = 200
	return synth.MustGenerate(p, "server", 0xFF3D)
}

var ffwdTestWL = ffwdWL()

// ffwdConfigs covers every serialized component family: each direction
// predictor kind, each BTB organization, each history policy, and the
// allocate-all policy.
func ffwdConfigs() []Config {
	mk := func(name string, mutate func(*Config)) Config {
		cfg := DefaultConfig()
		cfg.Name = name
		mutate(&cfg)
		return cfg
	}
	return []Config{
		mk("fdp", func(c *Config) {}),
		mk("baseline", func(c *Config) { *c = BaselineConfig(); c.Name = "baseline" }),
		mk("gshare", func(c *Config) { c.Dir = DirGshare }),
		mk("perceptron", func(c *Config) { c.Dir = DirPerceptron }),
		mk("scl", func(c *Config) { c.Dir = DirTAGESCL24 }),
		mk("perfect-dir", func(c *Config) { c.Dir = DirPerfect }),
		mk("two-level", func(c *Config) { c.L1BTBEntries = 512; c.L1BTBWays = 4 }),
		mk("bb-btb", func(c *Config) { c.BasicBlockBTB = true }),
		mk("perfect-btb", func(c *Config) { c.PerfectBTB = true }),
		mk("ghr-nofix", func(c *Config) { c.HistPolicy = HistGHRNoFix }),
		mk("ghr-fix", func(c *Config) { c.HistPolicy = HistGHRFix; c.BTBAllocPolicy = AllocAll }),
		mk("ideal-hist", func(c *Config) { c.HistPolicy = HistIdeal }),
	}
}

// TestCheckpointEquivalence is the core correctness property: a cold
// fast-forward run (which produces the snapshot) and a restore of that
// snapshot must produce identical measured results, for every predictor
// and BTB organization.
func TestCheckpointEquivalence(t *testing.T) {
	ctx := context.Background()
	w := ffwdTestWL
	for _, cfg := range ffwdConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			cold, snap, err := SimulateCheckpointed(ctx, cfg, w.NewStream(), w.Name, 30_000, 30_000, SimOptions{}, nil)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			if len(snap) == 0 {
				t.Fatal("cold run produced no snapshot")
			}
			restored, snap2, err := SimulateCheckpointed(ctx, cfg, w.NewStream(), w.Name, 30_000, 30_000, SimOptions{}, snap)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if snap2 != nil {
				t.Error("restore path returned a snapshot")
			}
			if !reflect.DeepEqual(cold, restored) {
				t.Errorf("restored run differs from cold run:\ncold: %+v\nrestored: %+v", cold, restored)
			}
			if cold.IPC() <= 0 {
				t.Errorf("cold IPC = %v", cold.IPC())
			}
		})
	}
}

// TestCheckpointRoundTripBytes is the differential property FuzzCheckpoint
// generalizes: decode(encode(state)) re-encodes to identical bytes, both
// into a fresh oracle and into one already advanced to the warmup
// boundary by hand.
func TestCheckpointRoundTripBytes(t *testing.T) {
	w := ffwdTestWL
	for _, cfg := range ffwdConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			c, err := New(cfg, w.NewStream())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.FastForward(context.Background(), 25_000); err != nil {
				t.Fatal(err)
			}
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			advanced := w.NewStream()
			if err := AdvanceOracle(context.Background(), advanced, 25_000); err != nil {
				t.Fatal(err)
			}
			for _, o2 := range []Oracle{w.NewStream(), advanced} {
				c2, err := New(cfg, o2)
				if err != nil {
					t.Fatal(err)
				}
				if err := c2.RestoreSnapshot(snap); err != nil {
					t.Fatal(err)
				}
				snap2, err := c2.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap, snap2) {
					t.Errorf("snapshot not byte-stable across restore: %d vs %d bytes", len(snap), len(snap2))
				}
			}
		})
	}
}

// TestCheckpointDifferentMeasure proves a checkpoint is measure-budget
// independent: restoring under a different measure budget matches a cold
// fast-forward run with that budget.
func TestCheckpointDifferentMeasure(t *testing.T) {
	ctx := context.Background()
	w := ffwdTestWL
	cfg := DefaultConfig()
	_, snap, err := SimulateCheckpointed(ctx, cfg, w.NewStream(), w.Name, 30_000, 10_000, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := SimulateCheckpointed(ctx, cfg, w.NewStream(), w.Name, 30_000, 40_000, SimOptions{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := SimulateCheckpointed(ctx, cfg, w.NewStream(), w.Name, 30_000, 40_000, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, restored) {
		t.Errorf("restore under different measure budget diverged:\ncold: %+v\nrestored: %+v", cold, restored)
	}
}

// TestCheckpointAtBatchBoundary pins the edge where the warmup budget
// lands exactly on FastForward's context-poll interval.
func TestCheckpointAtBatchBoundary(t *testing.T) {
	ctx := context.Background()
	w := ffwdTestWL
	cfg := DefaultConfig()
	warmup := uint64(ffwdCheckInterval) // exactly one poll batch
	cold, snap, err := SimulateCheckpointed(ctx, cfg, w.NewStream(), w.Name, warmup, 20_000, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := SimulateCheckpointed(ctx, cfg, w.NewStream(), w.Name, warmup, 20_000, SimOptions{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, restored) {
		t.Error("boundary-budget restore diverged from cold run")
	}
}

// TestFastForwardCancel verifies mid-fast-forward cancellation surfaces
// through SimulateOptions' context polling.
func TestFastForwardCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := ffwdTestWL
	_, err := SimulateOptions(ctx, DefaultConfig(), w.NewStream(), w.Name, 200_000, 10_000,
		SimOptions{FastForward: true})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRestoreRejectsWrongGeometry: a snapshot from one configuration must
// not load into a machine with different table geometry.
func TestRestoreRejectsWrongGeometry(t *testing.T) {
	w := ffwdTestWL
	cfg := DefaultConfig()
	c, err := New(cfg, w.NewStream())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FastForward(context.Background(), 10_000); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := DefaultConfig()
	other.BTBEntries = 1024
	c2, err := New(other, w.NewStream())
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.RestoreSnapshot(snap); err == nil {
		t.Fatal("restore into mismatched geometry succeeded")
	}
}

// TestAdvanceOracleMatchesNext: Advance must land streams in exactly the
// state a Next loop reaches.
func TestAdvanceOracleMatchesNext(t *testing.T) {
	w := ffwdTestWL
	a, b := w.NewStream(), w.NewStream()
	const n = 12_345
	for i := 0; i < n; i++ {
		a.Next()
	}
	if err := AdvanceOracle(context.Background(), b, n); err != nil {
		t.Fatal(err)
	}
	if a.PC() != b.PC() {
		t.Fatalf("PC after advance: %#x vs %#x", a.PC(), b.PC())
	}
	for i := 0; i < 1000; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("stream diverged at +%d: %+v vs %+v", i, da, db)
		}
	}
}

// countingOracle forwards to a synth stream and counts Next calls. It
// exposes exactly the oracle and position methods — not Advance — so any
// replay of the stream, whichever way it is driven, shows in the count.
type countingOracle struct {
	s    *synth.Stream
	next int
}

func (o *countingOracle) Image() *program.Image               { return o.s.Image() }
func (o *countingOracle) PC() uint64                          { return o.s.PC() }
func (o *countingOracle) PeekDirection(pc uint64) bool        { return o.s.PeekDirection(pc) }
func (o *countingOracle) PeekTarget(pc uint64) (uint64, bool) { return o.s.PeekTarget(pc) }
func (o *countingOracle) SaveState(w *ckpt.Writer)            { o.s.SaveState(w) }
func (o *countingOracle) LoadState(r *ckpt.Reader)            { o.s.LoadState(r) }
func (o *countingOracle) Next() program.DynInst               { o.next++; return o.s.Next() }

// TestRestoreReplaysNothing pins the point of carrying the oracle's
// position in the snapshot: a restored run draws no instruction from its
// oracle before the measured region starts, and still matches the cold
// run exactly.
func TestRestoreReplaysNothing(t *testing.T) {
	ctx := context.Background()
	w := ffwdTestWL
	cfg := DefaultConfig()
	cold, snap, err := SimulateCheckpointed(ctx, cfg, w.NewStream(), w.Name, 200_000, 20_000, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &countingOracle{s: w.NewStream()}
	before := -1
	opts := SimOptions{Phase: func(name string) {
		if name == "measure" {
			before = o.next
		}
	}}
	restored, _, err := SimulateCheckpointed(ctx, cfg, o, w.Name, 200_000, 20_000, opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	if before != 0 {
		t.Errorf("restore drew %d instructions from the oracle before measuring, want 0", before)
	}
	if o.next == 0 {
		t.Error("counting oracle saw no Next calls during measurement")
	}
	if !reflect.DeepEqual(cold, restored) {
		t.Error("restored run differs from cold run")
	}
}

// plainOracle hides every method of a synth stream but the Oracle ones.
type plainOracle struct{ Oracle }

// TestSnapshotNeedsPosition: an oracle that cannot serialize its position
// cannot be checkpointed, since a restore could not reach the warmup
// boundary without replaying it.
func TestSnapshotNeedsPosition(t *testing.T) {
	_, _, err := SimulateCheckpointed(context.Background(), DefaultConfig(), plainOracle{ffwdTestWL.NewStream()},
		ffwdTestWL.Name, 1000, 1000, SimOptions{}, nil)
	if err == nil || !strings.Contains(err.Error(), "cannot serialize its position") {
		t.Fatalf("err = %v, want a position serialization error", err)
	}
}

// FuzzCheckpoint is the differential fuzz target: for a fuzzer-chosen
// config variant and warmup length, snapshot → restore → snapshot must be
// byte-identical; and restoring fuzzer-corrupted snapshot bytes must fail
// cleanly (error, never panic) or leave a machine that snapshots and runs.
// A config pick with its top bit set places the flips from the end of
// the snapshot, where the oracle's position is, instead of from the start.
func FuzzCheckpoint(f *testing.F) {
	f.Add(uint8(0), uint16(1000), []byte{})
	f.Add(uint8(4), uint16(5000), []byte{0xff, 0x00, 0x10})
	f.Add(uint8(7), uint16(16384), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(0x84), uint16(3000), []byte{0x21, 0x00, 0x40})
	f.Add(uint8(0x81), uint16(20000), []byte{0x03, 0x80, 0x07, 0x13})
	configs := ffwdConfigs()
	w := ffwdTestWL
	f.Fuzz(func(t *testing.T, cfgPick uint8, warm uint16, mutation []byte) {
		cfg := configs[int(cfgPick)%len(configs)]
		warmup := uint64(warm)
		c, err := New(cfg, w.NewStream())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.FastForward(context.Background(), warmup); err != nil {
			t.Fatal(err)
		}
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		newFresh := func() *Core {
			c2, err := New(cfg, w.NewStream())
			if err != nil {
				t.Fatal(err)
			}
			return c2
		}

		c2 := newFresh()
		if err := c2.RestoreSnapshot(snap); err != nil {
			t.Fatalf("restore of valid snapshot failed: %v", err)
		}
		snap2, err := c2.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, snap2) {
			t.Fatal("snapshot not byte-stable across restore")
		}

		// Corruption robustness: XOR the mutation bytes into the snapshot
		// at spread positions and restore into a fresh machine. Any
		// outcome is fine except a panic or a silent half-restore that
		// then snapshots to garbage lengths or cannot run.
		if len(mutation) > 0 {
			corrupt := append([]byte(nil), snap...)
			fromEnd := cfgPick&0x80 != 0
			for i, m := range mutation {
				pos := (int(m) + i*8191) % len(corrupt)
				if fromEnd {
					pos = len(corrupt) - 1 - pos
				}
				corrupt[pos] ^= m | 1
			}
			c3 := newFresh()
			if err := c3.RestoreSnapshot(corrupt); err == nil {
				// The flip may have hit state payload (not structure), in
				// which case decode succeeds; the machine must still be
				// serializable and runnable.
				if _, err := c3.Snapshot(); err != nil {
					t.Fatalf("post-corrupt-restore snapshot failed: %v", err)
				}
				c3.Step(1000)
			}
		}
	})
}
