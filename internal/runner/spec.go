// Package runner is the unified run-execution subsystem: every frontend
// (the experiment grid, cmd/sweep, cmd/fdpsim) describes its simulations
// as declarative Specs and hands them to Execute, which schedules them on
// a bounded worker pool with first-error cancellation and per-job panic
// isolation, and satisfies repeated specs from a content-addressed result
// cache instead of re-simulating. See docs/ARCHITECTURE.md.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"fdp/internal/core"
	"fdp/internal/synth"
)

// Epoch is the simulator-semantics version of cached results. Any change
// that alters simulation output — which by definition regenerates the
// golden manifests (`make golden-update`) — MUST bump this constant so
// stale on-disk cache entries are treated as misses instead of silently
// replaying results from the old simulator. Representation-only changes
// that keep the golden manifests byte-identical must NOT bump it, so
// caches stay warm across them.
const Epoch = 2

// cacheSchema versions the on-disk cache entry layout itself (as opposed
// to the simulator semantics, which Epoch tracks). v2 nests the result in
// a CRC-32-covered payload so bit flips are detected and quarantined.
const cacheSchema = 2

// Spec declares one simulation: the full machine configuration, the
// workload identity, and the warmup/measure instruction budget. Two specs
// with equal Keys denote the same simulation and — the simulator being
// deterministic — the same result; that is what makes results
// content-addressable.
type Spec struct {
	// Config is the full machine configuration (part of the identity).
	Config core.Config
	// Workload, Class and Seed identify the deterministic instruction
	// stream. For synthetic workloads the (name, seed) pair pins the
	// generated program and all branch behaviour.
	Workload string
	Class    string
	Seed     uint64
	// Warmup and Measure are the instruction budgets.
	Warmup  uint64
	Measure uint64

	// FFwd selects functional fast-forward warmup instead of
	// cycle-accurate warmup. It is part of the identity: fast-forward
	// trains with different (functional) semantics, so its results must
	// never be served for cycle-accurate specs or vice versa.
	FFwd bool

	// SpecHash is the canonical content hash of the workload spec for
	// spec-defined workloads (see internal/wspec), and "" for the
	// built-in presets. It is part of the identity: two scenarios may
	// share a display name while mixing different programs, so the hash —
	// not the name — pins what actually executed. Built-ins keep "" so
	// every pre-refactor cache key is unchanged.
	SpecHash string

	// NewOracle produces a fresh oracle for the stream. It is the
	// execution handle only — never part of the identity hash — and must
	// yield the same instruction sequence every call (synth streams and
	// trace replays both do).
	NewOracle func() core.Oracle
}

// WorkloadSpec builds the Spec for one (config, synthetic workload,
// budget) simulation.
func WorkloadSpec(cfg core.Config, w *synth.Workload, warmup, measure uint64) Spec {
	return Spec{
		Config:   cfg,
		Workload: w.Name,
		Class:    w.Class,
		Seed:     w.Seed,
		Warmup:   warmup,
		Measure:  measure,
		SpecHash: w.SpecHash,
		NewOracle: func() core.Oracle {
			return w.NewStream()
		},
	}
}

// Key returns the spec's stable content hash: sha256 over a versioned
// preamble, the workload identity and budget, and the canonical JSON
// encoding of the configuration. Adding a Config field changes the hash —
// deliberately, since a new knob may change semantics. The simulator
// Epoch is NOT part of the key; it is stored alongside cached entries and
// checked on read, so an epoch bump invalidates entries without orphaning
// the files. TestSpecKeyGolden pins the scheme against silent drift.
func (s Spec) Key() string {
	cfg, err := json.Marshal(s.Config)
	if err != nil {
		// core.Config is a plain data struct; its encoding cannot fail.
		panic(fmt.Sprintf("runner: marshaling config: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "fdp-spec-v1|workload=%s|class=%s|seed=%d|warmup=%d|measure=%d|config=",
		s.Workload, s.Class, s.Seed, s.Warmup, s.Measure)
	h.Write(cfg)
	if s.FFwd {
		// Appended only when set so every pre-existing key is unchanged
		// (TestSpecKeyGolden): fast-forward runs train differently and
		// must hash to a different result identity.
		fmt.Fprint(h, "|ffwd=1")
	}
	if s.SpecHash != "" {
		// Same append-only rule: built-in workloads hash exactly as before
		// the wspec refactor (TestSpecKeyStability), while spec-defined
		// scenarios are identified by their content hash.
		fmt.Fprintf(h, "|wspec=%s", s.SpecHash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// trainKey is the training-relevant subset of core.Config: exactly the
// knobs that change what functional fast-forward warmup trains (predictor
// kind, BTB organization and geometry, history policy, allocation policy,
// RAS depth, cache and ITLB geometry). Timing-only knobs — FTQ size,
// widths, latencies, prefetcher, MSHRs, backend stall model — are
// deliberately absent, which is the whole point: a sweep over timing
// parameters shares one checkpoint across all its configurations.
type trainKey struct {
	Dir            core.DirKind
	BTBEntries     int
	BTBWays        int
	PerfectBTB     bool
	BasicBlockBTB  bool
	L1BTBEntries   int
	L1BTBWays      int
	HistPolicy     core.HistPolicy
	BTBAllocPolicy core.BTBAlloc
	RASDepth       int
	L1IBytes       int
	L1IWays        int
	L2Bytes        int
	L2Ways         int
	LLCBytes       int
	LLCWays        int
	ITLBEntries    int
	ITLBWays       int
}

// CheckpointKey returns the content hash identifying the post-warmup
// state this spec's fast-forward warmup produces: workload identity,
// warmup budget, and the training-relevant configuration subset. The
// measure budget and every timing-only knob are excluded, so N
// configurations sweeping timing parameters over one workload map to one
// checkpoint — warmup is paid once and restored N-1 times.
func (s Spec) CheckpointKey() string {
	tk := trainKey{
		Dir:            s.Config.Dir,
		BTBEntries:     s.Config.BTBEntries,
		BTBWays:        s.Config.BTBWays,
		PerfectBTB:     s.Config.PerfectBTB,
		BasicBlockBTB:  s.Config.BasicBlockBTB,
		L1BTBEntries:   s.Config.L1BTBEntries,
		L1BTBWays:      s.Config.L1BTBWays,
		HistPolicy:     s.Config.HistPolicy,
		BTBAllocPolicy: s.Config.BTBAllocPolicy,
		RASDepth:       s.Config.RASDepth,
		L1IBytes:       s.Config.L1IBytes,
		L1IWays:        s.Config.L1IWays,
		L2Bytes:        s.Config.L2Bytes,
		L2Ways:         s.Config.L2Ways,
		LLCBytes:       s.Config.LLCBytes,
		LLCWays:        s.Config.LLCWays,
		ITLBEntries:    s.Config.ITLBEntries,
		ITLBWays:       s.Config.ITLBWays,
	}
	b, err := json.Marshal(tk)
	if err != nil {
		panic(fmt.Sprintf("runner: marshaling train key: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "fdp-ckpt-v1|workload=%s|class=%s|seed=%d|warmup=%d|train=",
		s.Workload, s.Class, s.Seed, s.Warmup)
	h.Write(b)
	if s.SpecHash != "" {
		// Append-only, exactly as in Key: checkpoints of spec-defined
		// scenarios are pinned to the spec content, built-ins keep their
		// pre-refactor checkpoint identity.
		fmt.Fprintf(h, "|wspec=%s", s.SpecHash)
	}
	return hex.EncodeToString(h.Sum(nil))
}
