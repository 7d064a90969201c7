package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"fdp/internal/core"
	"fdp/internal/faultkit"
	"fdp/internal/obs"
	"fdp/internal/synth"
)

// ffwdSpec builds one fast-forward spec for the named synth workload.
func ffwdSpec(t *testing.T, cfg core.Config, wl string, warmup, measure uint64) Spec {
	t.Helper()
	w := synth.ByName(wl)
	if w == nil {
		t.Fatalf("unknown workload %s", wl)
	}
	sp := WorkloadSpec(cfg, w, warmup, measure)
	sp.FFwd = true
	return sp
}

// timingSweepSpecs returns n fast-forward specs over one workload whose
// configs differ only in timing knobs — they share one CheckpointKey.
func timingSweepSpecs(t *testing.T, n int) []Spec {
	t.Helper()
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		cfg := core.DefaultConfig()
		cfg.Name = "sweep"
		cfg.FTQEntries = 8 + 4*i
		cfg.FetchWidth = 4 + i%4
		specs = append(specs, ffwdSpec(t, cfg, "server_a", 20_000, 15_000))
	}
	return specs
}

// TestSpecKeyFFwd: the fast-forward flag is part of the result identity —
// same budgets and config, different key.
func TestSpecKeyFFwd(t *testing.T) {
	w := synth.ByName("server_a")
	a := WorkloadSpec(core.DefaultConfig(), w, 1000, 2000)
	b := a
	b.FFwd = true
	if a.Key() == b.Key() {
		t.Fatal("fast-forward spec hashed to the cycle-accurate key")
	}
}

// TestCheckpointKeySharing pins what the checkpoint key must and must not
// see: timing-only knobs share a key (that is the whole sweep win), while
// training-relevant knobs, the workload, and the warmup budget split it.
// The measure budget must NOT split it — a checkpoint ends where
// measurement begins.
func TestCheckpointKeySharing(t *testing.T) {
	base := ffwdSpec(t, core.DefaultConfig(), "server_a", 20_000, 15_000)

	timing := base
	timing.Config.FTQEntries *= 2
	timing.Config.FetchWidth++
	timing.Config.PerfectPrefetch = true
	if base.CheckpointKey() != timing.CheckpointKey() {
		t.Error("timing-only config change split the checkpoint key")
	}

	measure := base
	measure.Measure = 99_999
	if base.CheckpointKey() != measure.CheckpointKey() {
		t.Error("measure budget split the checkpoint key")
	}

	for name, mutate := range map[string]func(*Spec){
		"dir-kind":    func(s *Spec) { s.Config.Dir = core.DirGshare },
		"btb-entries": func(s *Spec) { s.Config.BTBEntries *= 2 },
		"hist-policy": func(s *Spec) { s.Config.HistPolicy = core.HistGHRNoFix },
		"l1i-bytes":   func(s *Spec) { s.Config.L1IBytes *= 2 },
		"warmup":      func(s *Spec) { s.Warmup += 1 },
		"workload": func(s *Spec) {
			w := synth.ByName("client_a")
			s.Workload, s.Class, s.Seed = w.Name, w.Class, w.Seed
		},
	} {
		sp := base
		mutate(&sp)
		if base.CheckpointKey() == sp.CheckpointKey() {
			t.Errorf("%s change did not split the checkpoint key", name)
		}
	}
}

// TestExecuteCheckpointSweep is the scheduling property the tentpole is
// for: a sweep of N configurations over one workload pays its warmup once
// (one checkpoint build) and restores N-1 times, with results identical
// to fast-forward runs that never saw a checkpoint.
func TestExecuteCheckpointSweep(t *testing.T) {
	const n = 6
	specs := timingSweepSpecs(t, n)
	key := specs[0].CheckpointKey()
	for i := range specs {
		if specs[i].CheckpointKey() != key {
			t.Fatalf("spec %d does not share the sweep checkpoint key", i)
		}
	}

	// Reference: same specs, checkpointing off.
	ref, err := Execute(context.Background(), timingSweepSpecs(t, n), Options{Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}

	cache, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	status := &Status{}
	got, err := Execute(context.Background(), specs,
		Options{Parallel: 3, Cache: cache, Checkpoint: true, Reg: reg, Status: status})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if got[i].Run == nil || !reflect.DeepEqual(ref[i].Run, got[i].Run) {
			t.Fatalf("spec %d: checkpointed run differs from plain fast-forward run", i)
		}
	}
	misses := reg.Counter(MetricCheckpointMisses).Value()
	hits := reg.Counter(MetricCheckpointHits).Value()
	restores := reg.Counter(MetricCheckpointRestores).Value()
	if misses != 1 {
		t.Errorf("%s = %d, want 1 (single warmup build for the sweep)", MetricCheckpointMisses, misses)
	}
	if hits != n-1 || restores != n-1 {
		t.Errorf("hits/restores = %d/%d, want %d/%d", hits, restores, n-1, n-1)
	}
	if status.CheckpointHits.Load() != int64(hits) || status.CheckpointMisses.Load() != int64(misses) ||
		status.CheckpointRestores.Load() != int64(restores) {
		t.Error("Status checkpoint counters diverge from registry metrics")
	}
	snap := status.Snapshot()
	if snap.CheckpointHits != int64(hits) || snap.CheckpointRestores != int64(restores) {
		t.Errorf("snapshot checkpoint counters = %d/%d, want %d/%d",
			snap.CheckpointHits, snap.CheckpointRestores, hits, restores)
	}
}

// TestCheckpointDiskRoundTrip: a checkpoint persisted by one cache is
// served byte-identically by a fresh cache over the same directory.
func TestCheckpointDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("post-warmup state bytes")
	a.PutCheckpoint("k1", data)

	b, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := b.GetCheckpoint("k1")
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("GetCheckpoint = (%q, %v), want original bytes", got, ok)
	}
	// Returned bytes must not alias the stored copy.
	got[0] ^= 0xff
	again, _ := b.GetCheckpoint("k1")
	if !bytes.Equal(again, data) {
		t.Fatal("checkpoint store aliased returned bytes")
	}
}

// TestCheckpointWrongEpoch: a well-formed checkpoint from another
// simulator epoch is a silent miss, not corruption.
func TestCheckpointWrongEpoch(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.PutCheckpoint("k", []byte("old-epoch state"))
	path := c.ckptPath("k")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := bytes.Replace(b,
		[]byte(`"epoch":`), []byte(`"epoch":99990`), 1)
	if bytes.Equal(mutated, b) {
		t.Fatal("epoch field not found in envelope")
	}
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.GetCheckpoint("k"); ok {
		t.Fatal("wrong-epoch checkpoint was served")
	}
	if q := fresh.Quarantined(); q != 0 {
		t.Fatalf("wrong-epoch checkpoint quarantined (%d), want silent miss", q)
	}
}

// TestCheckpointOldSchema: a well-formed checkpoint written under an
// earlier envelope schema (snapshots without the oracle position) is a
// silent miss, and the file is left in place rather than quarantined.
func TestCheckpointOldSchema(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("schema-1 state")
	b, err := json.Marshal(ckptDiskEntry{Schema: 1, Epoch: Epoch, Key: "k", CRC: crc32.ChecksumIEEE(data), Data: data})
	if err != nil {
		t.Fatal(err)
	}
	path := c.ckptPath("k")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetCheckpoint("k"); ok {
		t.Fatal("schema-1 checkpoint was served")
	}
	if q := c.Quarantined(); q != 0 {
		t.Fatalf("schema-1 checkpoint quarantined (%d), want silent miss", q)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("schema-1 checkpoint file moved: %v", err)
	}
}

// TestCheckpointCorruptionFallback is the satellite robustness property:
// damage the on-disk checkpoint in each faultkit mode, re-run, and the
// runner must quarantine the file to *.corrupt, fall back to a cold
// fast-forward warmup, and still produce the correct result.
func TestCheckpointCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	buildCache, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	seedSpec := timingSweepSpecs(t, 1)[0]
	if _, err := Execute(context.Background(), []Spec{seedSpec},
		Options{Cache: buildCache, Checkpoint: true}); err != nil {
		t.Fatal(err)
	}
	ckptFile := buildCache.ckptPath(seedSpec.CheckpointKey())
	pristine, err := os.ReadFile(ckptFile)
	if err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}

	corruptors := []struct {
		name string
		hit  func() error
	}{
		{"flip-bit", func() error { return faultkit.FlipBit(ckptFile, 7) }},
		{"truncate", func() error { return faultkit.TruncateFrac(ckptFile, 0.5) }},
		{"append-garbage", func() error { return faultkit.AppendGarbage(ckptFile, 11, 64) }},
	}
	for run, cr := range corruptors {
		t.Run(cr.name, func(t *testing.T) {
			if err := os.WriteFile(ckptFile, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := cr.hit(); err != nil {
				t.Fatal(err)
			}
			// Fresh cache over the same directory (cold memory); a distinct
			// measure budget guarantees a result-cache miss while keeping
			// the checkpoint key identical.
			cache, err := NewCache(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			sp := seedSpec
			sp.Measure = seedSpec.Measure + uint64(run+1)*1000
			reg := obs.NewRegistry()
			got, err := Execute(context.Background(), []Spec{sp},
				Options{Cache: cache, Checkpoint: true, Reg: reg})
			if err != nil {
				t.Fatal(err)
			}
			if got[0].Run == nil {
				t.Fatal("corrupted checkpoint failed the run")
			}
			want, _, werr := core.SimulateCheckpointed(context.Background(), sp.Config, sp.NewOracle(),
				sp.Workload, sp.Warmup, sp.Measure, core.SimOptions{}, nil)
			if werr != nil {
				t.Fatal(werr)
			}
			want.Class = sp.Class
			if !reflect.DeepEqual(got[0].Run, want) {
				t.Fatal("cold-fallback result differs from a direct fast-forward run")
			}
			if q := cache.Quarantined(); q != 1 {
				t.Errorf("quarantined = %d, want 1", q)
			}
			if _, err := os.Stat(ckptFile + ".corrupt"); err != nil {
				t.Errorf("quarantine file missing: %v", err)
			}
			if n := reg.Counter(MetricCheckpointMisses).Value(); n != 1 {
				t.Errorf("%s = %d, want 1 (cold rebuild)", MetricCheckpointMisses, n)
			}
			// The rebuild must republish a valid checkpoint.
			if _, ok := cache.GetCheckpoint(sp.CheckpointKey()); !ok {
				t.Error("rebuilt checkpoint not stored")
			}
		})
	}
}

// TestCheckpointUndetectedCorruption: bytes that pass the envelope CRC but
// fail core decode (the CRC was computed over already-bad bytes) must
// trigger the in-core bad-snapshot fallback, not an error.
func TestCheckpointUndetectedCorruption(t *testing.T) {
	cache, err := NewCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	sp := timingSweepSpecs(t, 1)[0]
	// A validly-enveloped checkpoint whose payload is garbage.
	cache.PutCheckpoint(sp.CheckpointKey(), []byte("not a core snapshot"))
	reg := obs.NewRegistry()
	got, err := Execute(context.Background(), []Spec{sp},
		Options{Cache: cache, Checkpoint: true, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	want, _, werr := core.SimulateCheckpointed(context.Background(), sp.Config, sp.NewOracle(),
		sp.Workload, sp.Warmup, sp.Measure, core.SimOptions{}, nil)
	if werr != nil {
		t.Fatal(werr)
	}
	want.Class = sp.Class
	if !reflect.DeepEqual(got[0].Run, want) {
		t.Fatal("bad-snapshot fallback produced a wrong result")
	}
	if n := reg.Counter(MetricCheckpointRestores).Value(); n != 0 {
		t.Errorf("%s = %d after failed restore, want 0", MetricCheckpointRestores, n)
	}
}

// TestCheckpointObservedRunsMatch: checkpointing must not perturb
// manifests — an observed checkpointed sweep produces the same counter
// documents as observed fast-forward runs without checkpoints. This is
// the in-process half of the warmup-check gate.
func TestCheckpointObservedRunsMatch(t *testing.T) {
	const n = 3
	ref, err := Execute(context.Background(), timingSweepSpecs(t, n),
		Options{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	cache, _ := NewCache(0, "")
	got, err := Execute(context.Background(), timingSweepSpecs(t, n),
		Options{Observe: true, Cache: cache, Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if ref[i].Manifest == nil || got[i].Manifest == nil {
			t.Fatalf("spec %d missing manifest", i)
		}
		if !reflect.DeepEqual(ref[i].Manifest.Counters, got[i].Manifest.Counters) {
			t.Fatalf("spec %d: checkpointed manifest counters differ", i)
		}
	}
}
