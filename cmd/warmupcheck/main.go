// Command warmupcheck is the CI gate for fast-forward warmup and
// checkpointed post-warmup state (`make warmup-check`). It proves two
// properties end to end:
//
//  1. Equivalence: for every golden (config, workload) pair, and for a
//     scenario workload whose warmup crosses a phase boundary, a run that
//     fast-forwards its warmup cold (training and snapshotting) and a run
//     that restores the checkpoint produce byte-identical observability
//     manifests over the measured region.
//
//  2. Payoff: a warmup-heavy sweep of 8 timing configurations over one
//     workload runs at least 2x faster with fast-forward checkpoints than
//     with cycle-accurate warmup, while every checkpointed result is
//     identical to the same fast-forward run without checkpoints.
//
// Exit status is nonzero on any violation.
package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	"fdp/internal/core"
	"fdp/internal/obs"
	"fdp/internal/runner"
	"fdp/internal/synth"
)

// goldenCase mirrors the golden-run harness cases (golden_test.go): the
// same four (config, workload) pairs and budgets the repo pins manifests
// for, now exercised under the fast-forward warmup semantic. A fifth case
// runs deploy_churn past its first phase boundary at 1M instructions, so
// the restored oracle must carry the mix scheduler's state exactly.
// workload is a standard name or an @spec.yaml reference.
type goldenCase struct {
	name     string
	cfg      core.Config
	workload string
	warmup   uint64
	measure  uint64
}

func goldenCases() []goldenCase {
	eip := core.DefaultConfig()
	eip.Name = "fdp+eip"
	eip.Prefetcher = "eip-27kb"

	ghr := core.DefaultConfig()
	ghr.Name = "ghr-fix"
	ghr.HistPolicy = core.HistGHRFix
	ghr.BTBAllocPolicy = core.AllocAll

	return []goldenCase{
		{"fdp_server_a", core.DefaultConfig(), "server_a", 20_000, 60_000},
		{"baseline_client_a", core.BaselineConfig(), "client_a", 20_000, 60_000},
		{"eip_server_b", eip, "server_b", 20_000, 60_000},
		{"ghrfix_spec_a", ghr, "spec_a", 20_000, 60_000},
		{"fdp_deploy_churn", core.DefaultConfig(), "@examples/workloads/deploy_churn.yaml", 1_200_000, 60_000},
	}
}

// manifestBytes runs one case (cold fast-forward when restore is nil,
// checkpoint restore otherwise) and returns the canonical manifest
// encoding plus the snapshot the cold path produced.
func manifestBytes(c goldenCase, w *synth.Workload, restore []byte) ([]byte, []byte, error) {
	p := obs.NewProbes()
	r, snap, err := core.SimulateCheckpointed(context.Background(), c.cfg, w.NewStream(), w.Name,
		c.warmup, c.measure, core.SimOptions{Probes: p}, restore)
	if err != nil {
		return nil, nil, err
	}
	r.Class = w.Class
	m := core.Manifest(c.cfg, r, p, w.Seed, c.warmup, c.measure)
	m.FFwd = true
	b, err := m.MarshalIndent()
	if err != nil {
		return nil, nil, err
	}
	return b, snap, nil
}

// checkGoldenEquivalence is property 1.
func checkGoldenEquivalence() error {
	fmt.Println("warmup-check: golden checkpoint equivalence")
	for _, c := range goldenCases() {
		ws, err := synth.Resolve(c.workload)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		w := ws[0]
		cold, snap, err := manifestBytes(c, w, nil)
		if err != nil {
			return fmt.Errorf("%s: cold run: %w", c.name, err)
		}
		if len(snap) == 0 {
			return fmt.Errorf("%s: cold run produced no checkpoint", c.name)
		}
		restored, _, err := manifestBytes(c, w, snap)
		if err != nil {
			return fmt.Errorf("%s: restored run: %w", c.name, err)
		}
		if !bytes.Equal(cold, restored) {
			return fmt.Errorf("%s: restored manifest differs from cold manifest (%d vs %d bytes, first divergence at byte %d)",
				c.name, len(cold), len(restored), firstDiff(cold, restored))
		}
		fmt.Printf("  %-18s cold == restored (%d-byte manifest, %d-byte checkpoint)\n",
			c.name, len(cold), len(snap))
	}
	return nil
}

// sweepSpecs builds the warmup-heavy sweep: 8 configurations differing
// only in timing knobs (one shared CheckpointKey) over one workload.
func sweepSpecs(ffwd bool) []runner.Spec {
	const (
		warmup  = 300_000
		measure = 30_000
	)
	w := synth.ByName("server_a")
	specs := make([]runner.Spec, 0, 8)
	for i := 0; i < 8; i++ {
		cfg := core.DefaultConfig()
		cfg.Name = fmt.Sprintf("ftq=%d", 4+4*i)
		cfg.FTQEntries = 4 + 4*i
		sp := runner.WorkloadSpec(cfg, w, warmup, measure)
		sp.FFwd = ffwd
		specs = append(specs, sp)
	}
	return specs
}

// checkSweepSpeedup is property 2. It returns the measured speedup.
func checkSweepSpeedup() (float64, error) {
	fmt.Println("warmup-check: warmup-heavy sweep (8 configs x 1 workload, 300K warmup / 30K measure)")
	ctx := context.Background()

	t0 := time.Now()
	if _, err := runner.Execute(ctx, sweepSpecs(false), runner.Options{Parallel: 1}); err != nil {
		return 0, fmt.Errorf("cycle-accurate sweep: %w", err)
	}
	cycleAccurate := time.Since(t0)

	// Reference fast-forward sweep without checkpoints: every job pays its
	// own functional warmup.
	plain, err := runner.Execute(ctx, sweepSpecs(true), runner.Options{Parallel: 1})
	if err != nil {
		return 0, fmt.Errorf("fast-forward sweep: %w", err)
	}

	cache, err := runner.NewCache(0, "")
	if err != nil {
		return 0, err
	}
	reg := obs.NewRegistry()
	t1 := time.Now()
	ckpt, err := runner.Execute(ctx, sweepSpecs(true),
		runner.Options{Parallel: 1, Cache: cache, Checkpoint: true, Reg: reg})
	if err != nil {
		return 0, fmt.Errorf("checkpointed sweep: %w", err)
	}
	checkpointed := time.Since(t1)

	for i := range plain {
		if ckpt[i].Run == nil || !reflect.DeepEqual(plain[i].Run, ckpt[i].Run) {
			return 0, fmt.Errorf("config %d: checkpointed run differs from plain fast-forward run", i)
		}
	}
	misses := reg.Counter(runner.MetricCheckpointMisses).Value()
	restores := reg.Counter(runner.MetricCheckpointRestores).Value()
	if misses != 1 || restores != 7 {
		return 0, fmt.Errorf("checkpoint scheduling: misses=%d restores=%d, want 1/7 (warmup paid once)", misses, restores)
	}

	speedup := cycleAccurate.Seconds() / checkpointed.Seconds()
	fmt.Printf("  cycle-accurate warmup: %7.2fs\n", cycleAccurate.Seconds())
	fmt.Printf("  ffwd + checkpoints:    %7.2fs  (%.1fx, checkpoint_misses=%d checkpoint_restores=%d)\n",
		checkpointed.Seconds(), speedup, misses, restores)
	if speedup < 2 {
		return speedup, fmt.Errorf("speedup %.2fx below the 2x gate", speedup)
	}
	return speedup, nil
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func main() {
	if err := checkGoldenEquivalence(); err != nil {
		fmt.Fprintf(os.Stderr, "warmup-check: FAIL: %v\n", err)
		os.Exit(1)
	}
	if _, err := checkSweepSpeedup(); err != nil {
		fmt.Fprintf(os.Stderr, "warmup-check: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("warmup-check: PASS")
}
