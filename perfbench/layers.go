package main

import (
	"fmt"
	"time"

	"fdp/internal/bpred"
	"fdp/internal/btb"
	"fdp/internal/cache"
	"fdp/internal/core"
	"fdp/internal/obs"
	"fdp/internal/program"
	"fdp/internal/synth"
)

// Sizes of the single-call timings. Every timing is repeated and its
// median reported.
const (
	layerReps = 5
	// stepCycles is one Step timing; stepWarmCycles runs first so the
	// timing sees a machine in steady state.
	stepWarmCycles = 100_000
	stepCycles     = 100_000
	// ffwdProbeInsts is the fast-forward timed per repetition, and the
	// warmup the snapshot captures.
	ffwdProbeInsts = 1_000_000
	// replayInsts is the oracle stream replayed through the structures;
	// replayPasses passes over it make one timing.
	replayInsts  = 400_000
	replayPasses = 10
	// The observability-overhead runs are cycle-accurate quick-scale
	// simulations with intervals snapshotted every overheadEvery cycles.
	overheadWarmup  = 50_000
	overheadMeasure = 200_000
	overheadEvery   = 10_000
)

func nsPer(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(n) }

// timeMachine times the core's public calls on machines built from the
// probe: construction, steady-state stepping, fast-forward, and the
// snapshot and restore of the post-warmup state.
func timeMachine(p probe, rep *report) error {
	var news, steps, ffwds, snaps, restores []float64
	var snapBytes int
	for i := 0; i < layerReps; i++ {
		o := p.w.NewStream()
		t := time.Now()
		if _, err := core.New(p.cfg, o); err != nil {
			return err
		}
		news = append(news, msSince(t))
	}

	c, err := core.New(p.cfg, p.w.NewStream())
	if err != nil {
		return err
	}
	c.Step(stepWarmCycles)
	for i := 0; i < layerReps; i++ {
		r0, t := c.Retired(), time.Now()
		c.Step(stepCycles)
		steps = append(steps, nsPer(time.Since(t), c.Retired()-r0))
	}

	for i := 0; i < layerReps; i++ {
		c, err := core.New(p.cfg, p.w.NewStream())
		if err != nil {
			return err
		}
		t := time.Now()
		if err := c.FastForward(executeCtx, ffwdProbeInsts); err != nil {
			return err
		}
		ffwds = append(ffwds, nsPer(time.Since(t), ffwdProbeInsts))
		t = time.Now()
		snap, err := c.Snapshot()
		if err != nil {
			return err
		}
		snaps = append(snaps, msSince(t))
		snapBytes = len(snap)

		o := p.w.NewStream()
		if err := core.AdvanceOracle(executeCtx, o, ffwdProbeInsts); err != nil {
			return err
		}
		r, err := core.New(p.cfg, o)
		if err != nil {
			return err
		}
		t = time.Now()
		if err := r.RestoreSnapshot(snap); err != nil {
			return err
		}
		restores = append(restores, msSince(t))
	}
	rep.add("core.new_ms", "ms", "host", median(news))
	rep.add("core.step_ns_per_inst", "ns", "host", median(steps))
	rep.add("core.ffwd_ns_per_inst", "ns", "host", median(ffwds))
	rep.add("core.snapshot_ms", "ms", "host", median(snaps))
	rep.add("core.restore_ms", "ms", "host", median(restores))
	rep.add("core.snapshot_kb", "KB", "host", float64(snapBytes)/1024).Base = "the probe configuration, deterministic"
	return nil
}

type takenBranch struct{ pc, target uint64 }

type condBranch struct {
	pc    uint64
	taken bool
}

// replaySink keeps the timed predictor calls from being optimized away.
var replaySink bool

// replay records the probe workload's oracle stream, timing the oracle,
// then replays it through the structures the default machine uses: the
// taken-only target history (THR) with TAGE-18KB's folded views, TAGE
// itself, the 8K-entry BTB and the 32KB L1I tag array. Each structure is
// first trained on the whole stream, untimed, so the timings see warm
// tables.
func replay(w *synth.Workload, rep *report) error {
	var oracle []float64
	var insts []program.DynInst
	for i := 0; i < layerReps; i++ {
		s := w.NewStream()
		buf := make([]program.DynInst, replayInsts)
		t := time.Now()
		for j := range buf {
			buf[j] = s.Next()
		}
		oracle = append(oracle, nsPer(time.Since(t), replayInsts))
		insts = buf
	}

	var (
		taken    []takenBranch
		cond     []condBranch
		branches []uint64
		lines    []uint64
	)
	lastLine := ^uint64(0)
	for _, d := range insts {
		if line := cache.LineAddr(d.SI.PC); line != lastLine {
			lines = append(lines, line)
			lastLine = line
		}
		if !d.SI.IsBranch() {
			continue
		}
		branches = append(branches, d.SI.PC)
		if d.SI.Type.IsConditional() {
			cond = append(cond, condBranch{d.SI.PC, d.Taken})
		}
		if d.Taken {
			taken = append(taken, takenBranch{d.SI.PC, d.NextPC})
		}
	}

	tage := bpred.NewTAGE(bpred.TAGE18KB())
	hist := bpred.NewHistory(tage.Specs())
	tage.Bind(0)
	b := btb.New(core.DefaultConfig().BTBEntries, core.DefaultConfig().BTBWays)
	l1i := cache.New("l1i", core.DefaultConfig().L1IBytes, core.DefaultConfig().L1IWays)
	for _, d := range insts {
		if !d.SI.IsBranch() {
			continue
		}
		if d.SI.Type.IsConditional() {
			replaySink = tage.Predict(d.SI.PC, hist)
			tage.Update(d.SI.PC, hist, d.Taken)
		}
		if _, _, hit := b.Lookup(d.SI.PC); !hit && d.Taken {
			b.Insert(d.SI.PC, d.SI.Type, d.NextPC)
		}
		if d.Taken {
			hist.InsertTaken(d.SI.PC, d.NextPC)
		}
	}
	for _, line := range lines {
		if hit, _ := l1i.Probe(line); !hit {
			l1i.Fill(line, false)
		}
	}

	timed := func(calls int, pass func()) float64 {
		var xs []float64
		for i := 0; i < layerReps; i++ {
			t := time.Now()
			for j := 0; j < replayPasses; j++ {
				pass()
			}
			xs = append(xs, nsPer(time.Since(t), uint64(calls*replayPasses)))
		}
		return median(xs)
	}
	histNS := timed(len(taken), func() {
		for _, x := range taken {
			hist.InsertTaken(x.pc, x.target)
		}
	})
	predictNS := timed(len(cond), func() {
		for _, x := range cond {
			replaySink = tage.Predict(x.pc, hist) != replaySink
		}
	})
	updateNS := timed(len(cond), func() {
		for _, x := range cond {
			tage.Update(x.pc, hist, x.taken)
		}
	})
	lookupNS := timed(len(branches), func() {
		for _, pc := range branches {
			_, _, hit := b.Lookup(pc)
			replaySink = hit != replaySink
		}
	})
	probeNS := timed(len(lines), func() {
		for _, line := range lines {
			if hit, _ := l1i.Probe(line); !hit {
				l1i.Fill(line, false)
			}
		}
	})
	rep.add("synth.oracle_ns_per_inst", "ns", "host", median(oracle))
	rep.add("bpred.history_insert_ns", "ns", "host", histNS).Base = countBase(len(taken), "taken branches")
	rep.add("bpred.tage_predict_ns", "ns", "host", predictNS).Base = countBase(len(cond), "conditional branches, history held")
	rep.add("bpred.tage_update_ns", "ns", "host", updateNS).Base = countBase(len(cond), "conditional branches, history held")
	rep.add("btb.lookup_ns", "ns", "host", lookupNS).Base = countBase(len(branches), "branches")
	rep.add("cache.probe_ns", "ns", "host", probeNS).Base = countBase(len(lines), "line probes, fill on miss included")
	return nil
}

func countBase(n int, what string) string { return fmt.Sprintf("%d %s", n, what) }

// overheads times the probe's quick-scale simulation plain and with each
// observability feature on, in rotating order, and reports each
// feature's median slowdown as a fraction of the plain median.
func overheads(p probe, rep *report) error {
	variants := []func() core.SimOptions{
		func() core.SimOptions { return core.SimOptions{} },
		func() core.SimOptions { return core.SimOptions{Probes: obs.NewProbes()} },
		func() core.SimOptions {
			pr := obs.NewProbes()
			pr.EnableIntervals(overheadEvery)
			return core.SimOptions{Probes: pr}
		},
		func() core.SimOptions { return core.SimOptions{Check: true} },
	}
	times := make([][]float64, len(variants))
	for round := 0; round < layerReps; round++ {
		for k := range variants {
			v := (k + round) % len(variants)
			o := variants[v]()
			t := time.Now()
			if _, err := core.SimulateOptions(executeCtx, p.cfg, p.w.NewStream(), p.w.Name, overheadWarmup, overheadMeasure, o); err != nil {
				return err
			}
			times[v] = append(times[v], time.Since(t).Seconds())
		}
	}
	plain := median(times[0])
	rep.add("obs.metrics_overhead_frac", "frac", "host", median(times[1])/plain-1)
	rep.add("obs.intervals_overhead_frac", "frac", "host", median(times[2])/plain-1)
	rep.add("core.check_overhead_frac", "frac", "host", median(times[3])/plain-1)
	return nil
}
