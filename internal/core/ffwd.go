package core

import (
	"context"
	"errors"
	"fmt"

	"fdp/internal/bpred"
	"fdp/internal/btb"
	"fdp/internal/cache"
	"fdp/internal/ckpt"
	"fdp/internal/program"
	"fdp/internal/stats"
)

// This file implements functional fast-forward warmup: executing the
// oracle stream and training the predictors, BTB, RAS, caches and ITLB
// with architectural outcomes, without timing the pipeline. A fast-forward
// leaves the pipeline itself empty (no FTQ entries, no decode queue, no
// in-flight fills), which is exactly what makes the post-warmup state
// small enough to checkpoint: only training state plus a handful of
// scalars need to be serialized, plus the oracle's position, so a restore
// lands on the warmup boundary without replaying the warmup stream. A
// restored machine is bit-identical to one that fast-forwarded in place —
// the property the warmup-check CI gate proves per golden workload.
//
// Fast-forward warmup is a different warmup *semantic* than cycle-accurate
// warmup (no speculative-path training, no prefetcher training, detection
// approximated architecturally), so runs using it carry a distinct
// identity in the runner's result cache (Spec.FFwd). Within the semantic
// it is exact: cold fast-forward and checkpoint-restore produce
// byte-identical measured manifests.

// snapMagic/snapVersion head every core snapshot.
const (
	snapMagic   = 0x46445053 // "FDPS"
	snapVersion = 2
)

// ErrBadSnapshot marks a checkpoint that failed to decode into the target
// machine (wrong magic/version, mismatched geometry, truncated or damaged
// payload). SimulateCheckpointed wraps restore failures with it so callers
// can fall back to a cold fast-forward instead of failing the run.
var ErrBadSnapshot = errors.New("core: bad snapshot")

// ffwdCheckInterval is how often (in instructions) FastForward polls the
// context and stamps the heartbeat; same spirit as ctxCheckInterval in the
// cycle loop.
const ffwdCheckInterval = 1 << 14

// FastForward functionally executes n instructions from the oracle,
// training the direction predictor, BTB, indirect predictor, RAS,
// instruction-cache hierarchy and ITLB with architectural outcomes, then
// re-synchronizes the speculative frontend state (PC, history, RAS) so
// cycle-accurate measurement can start immediately. It must be called
// before any cycles have run. The context is polled every
// ffwdCheckInterval instructions.
func (c *Core) FastForward(ctx context.Context, n uint64) error {
	if c.now != 0 || c.q.Len() != 0 || c.dqLen != 0 {
		return fmt.Errorf("core: FastForward on a machine that already ran (cycle %d)", c.now)
	}
	done := ctx.Done()
	c.hb.Beat(0)
	// lastLine dedupes hierarchy touches: straight-line code stays within a
	// cache line for several instructions, and both the cold and the
	// restored path see the identical access sequence either way.
	lastLine := ^uint64(0)
	target := c.retired + n
	for c.retired < target {
		pc := c.oracle.PC()
		if line := pc >> cache.LineShift; line != lastLine {
			lastLine = line
			if !c.itlb.Probe(pc) {
				c.itlb.Fill(pc)
			}
			c.hier.Touch(line)
		}
		dyn := c.oracle.Next()
		c.retired++
		if dyn.SI.IsBranch() {
			c.ffwdTrainBranch(pc, dyn)
		}
		if c.retired&(ffwdCheckInterval-1) == 0 {
			c.hb.Beat(c.retired)
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
		}
	}
	// Start the frontend on the correct path, exactly like a post-flush
	// restart: speculative PC at the oracle, speculative history and RAS
	// copied from the architectural state, BB walk re-synchronized.
	c.specPC = c.oracle.PC()
	c.histSpec.CopyFrom(c.histArch)
	c.rasSpec.CopyFrom(c.rasArch)
	if c.bb != nil {
		c.bbValid = false
		c.bbExpectStart = c.specPC
	}
	return nil
}

// ffwdTrainBranch is trainBranch for functional warmup: the same
// architectural training recipe, but with no frontend uop to consult.
// Detection (which cycle-accurate warmup takes from the predict-time BTB
// probe) is approximated architecturally by a non-mutating BTB peek; the
// prefetcher is NOT trained, since it is driven by timing-path events
// that do not exist functionally. Both approximations are deterministic,
// so cold fast-forward and checkpoint restore agree exactly.
func (c *Core) ffwdTrainBranch(pc uint64, dyn program.DynInst) {
	si := dyn.SI
	if si.Type.IsConditional() {
		if c.tage != nil {
			c.tage.Update(pc, c.histArch, dyn.Taken)
		} else {
			c.dir.Update(pc, c.histArch, dyn.Taken)
		}
	}
	if si.Type.IsIndirect() {
		c.it.Update(pc, c.histArch, dyn.NextPC)
	}

	// The GHRNoFix policy inserts history only for branches the frontend
	// saw (detected, PFC-steered or mispredicted); functionally that is
	// approximated as "the BTB knows the branch, or it diverts the flow"
	// — peeked before this branch trains the BTB, matching the
	// predict-before-train ordering of the pipeline.
	detected := false
	if c.cfg.HistPolicy == HistGHRNoFix {
		detected = c.ffwdDetected(pc)
	}

	if c.bb != nil {
		if pc >= c.archBlockStart {
			size := int((pc-c.archBlockStart)/program.InstBytes) + 1
			tgt := dyn.NextPC
			if !dyn.Taken {
				tgt = si.Target
			}
			c.bb.Insert(c.archBlockStart, size, si.Type, tgt)
		}
		if dyn.Taken {
			c.archBlockStart = dyn.NextPC
		} else {
			c.archBlockStart = pc + program.InstBytes
		}
	} else {
		switch {
		case dyn.Taken:
			c.tb.Insert(pc, si.Type, dyn.NextPC)
		case c.cfg.BTBAllocPolicy == AllocAll:
			c.tb.Insert(pc, si.Type, si.Target)
		}
	}

	if si.Type.IsCall() {
		c.rasArch.Push(pc + program.InstBytes)
	}
	if si.Type.IsReturn() {
		c.rasArch.Pop()
	}

	switch c.cfg.HistPolicy {
	case HistTHR:
		if dyn.Taken {
			c.histArch.InsertTaken(pc, dyn.NextPC)
		}
	case HistGHRNoFix:
		if detected || dyn.Taken {
			c.histArch.InsertDir(dyn.Taken)
		}
	case HistGHRFix, HistIdeal:
		c.histArch.InsertDir(dyn.Taken)
	}
}

// ffwdDetected reports whether the active BTB organization currently
// knows the branch at pc, without mutating replacement state.
func (c *Core) ffwdDetected(pc uint64) bool {
	switch {
	case c.realBTB != nil:
		return c.realBTB.Peek(pc)
	case c.twoLevel != nil:
		return c.twoLevel.L1().Peek(pc) || c.twoLevel.L2().Peek(pc)
	case c.bb != nil:
		// Block-grained detection has no per-branch probe; treat the
		// branch as detected (BB-BTB mode targets full block coverage).
		return true
	default:
		// Perfect BTB: everything is detected.
		return true
	}
}

// positioner is implemented by oracles that can serialize their position
// (synth and trace streams): the state a restore would otherwise rebuild
// by replaying every warmup instruction.
type positioner interface {
	SaveState(w *ckpt.Writer)
	LoadState(r *ckpt.Reader)
}

// Snapshot serializes the machine's post-warmup microarchitectural state:
// predictor tables, BTB contents, indirect predictor, architectural
// history and RAS, cache and ITLB contents, the architectural-position
// scalars, and the oracle's position. It requires a quiesced machine —
// empty pipeline, no divergence in flight — which FastForward guarantees,
// and an oracle that can serialize its position; it returns an error
// otherwise.
func (c *Core) Snapshot() ([]byte, error) {
	if c.q.Len() != 0 || c.dqLen != 0 || c.diverged {
		return nil, fmt.Errorf("core: snapshot of a non-quiesced machine (ftq %d, dq %d, diverged %v)",
			c.q.Len(), c.dqLen, c.diverged)
	}
	pos, ok := c.oracle.(positioner)
	if !ok {
		return nil, fmt.Errorf("core: snapshot with an oracle (%T) that cannot serialize its position", c.oracle)
	}
	w := ckpt.NewWriter()
	w.U32(snapMagic)
	w.U32(snapVersion)
	w.U64(c.specPC)
	w.U64(c.retired)
	w.U64(c.now)
	w.U64(c.archBlockStart)
	w.Bool(c.bbValid)
	w.U64(c.bbExpectStart)
	w.U64(c.bbBranchPC)
	w.U8(uint8(c.bbType))
	w.U64(c.bbTarget)

	c.histArch.SaveState(w)
	c.rasArch.SaveState(w)

	if sp, ok := c.dir.(bpred.StatePredictor); ok {
		sp.SaveState(w)
	}
	switch {
	case c.realBTB != nil:
		c.realBTB.SaveState(w)
	case c.twoLevel != nil:
		c.twoLevel.SaveState(w)
	case c.bb != nil:
		c.bb.SaveState(w)
	default:
		if p, ok := c.tb.(*btb.Perfect); ok {
			p.SaveState(w)
		}
	}
	c.it.SaveState(w)
	c.hier.SaveState(w)
	c.itlb.SaveState(w)
	pos.SaveState(w)
	return w.Bytes(), nil
}

// RestoreSnapshot loads state serialized by Snapshot into a freshly built
// machine, moving its oracle to the saved position — the warmup boundary —
// from wherever the oracle stands. The speculative frontend state is
// re-derived from the restored architectural state exactly as FastForward
// leaves it, so a restored machine and a cold fast-forwarded one are
// bit-identical.
func (c *Core) RestoreSnapshot(b []byte) error {
	if c.now != 0 || c.q.Len() != 0 || c.dqLen != 0 {
		return fmt.Errorf("core: restore into a machine that already ran (cycle %d)", c.now)
	}
	pos, ok := c.oracle.(positioner)
	if !ok {
		return fmt.Errorf("core: restore with an oracle (%T) that cannot load its position", c.oracle)
	}
	r := ckpt.NewReader(b)
	if m := r.U32(); r.Err() == nil && m != snapMagic {
		return fmt.Errorf("core: bad snapshot magic %#x", m)
	}
	if v := r.U32(); r.Err() == nil && v != snapVersion {
		return fmt.Errorf("core: unsupported snapshot version %d", v)
	}
	c.specPC = r.U64()
	c.retired = r.U64()
	c.now = r.U64()
	c.archBlockStart = r.U64()
	c.bbValid = r.Bool()
	c.bbExpectStart = r.U64()
	c.bbBranchPC = r.U64()
	c.bbType = program.InstType(r.U8())
	c.bbTarget = r.U64()

	c.histArch.LoadState(r)
	c.rasArch.LoadState(r)

	if sp, ok := c.dir.(bpred.StatePredictor); ok {
		sp.LoadState(r)
	}
	switch {
	case c.realBTB != nil:
		c.realBTB.LoadState(r)
	case c.twoLevel != nil:
		c.twoLevel.LoadState(r)
	case c.bb != nil:
		c.bb.LoadState(r)
	default:
		if p, ok := c.tb.(*btb.Perfect); ok {
			p.LoadState(r)
		}
	}
	c.it.LoadState(r)
	c.hier.LoadState(r)
	c.itlb.LoadState(r)
	pos.LoadState(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("core: snapshot decode: %w", err)
	}
	// FastForward leaves the frontend at the oracle's PC; a snapshot that
	// disagrees would desynchronize the correct path on the first dispatch.
	if c.specPC != c.oracle.PC() {
		return fmt.Errorf("core: snapshot frontend pc %#x, oracle at %#x", c.specPC, c.oracle.PC())
	}

	c.histSpec.CopyFrom(c.histArch)
	c.rasSpec.CopyFrom(c.rasArch)
	return nil
}

// advancer is implemented by oracle streams that can skip ahead without
// materializing DynInsts (trace replays jump modulo the trace length;
// synth streams replay their behaviour models).
type advancer interface {
	Advance(n uint64)
}

// AdvanceOracle functionally advances an oracle by n instructions, as
// FastForward's stream consumption would, without training anything.
// Streams implementing Advance are skipped in chunks with context polls
// between them; others are drained with Next. Restores do not need it —
// the snapshot carries the oracle's position — but a caller may still
// position a stream by hand before RestoreSnapshot.
func AdvanceOracle(ctx context.Context, o Oracle, n uint64) error {
	done := ctx.Done()
	const chunk = 1 << 16
	for n > 0 {
		step := n
		if step > chunk {
			step = chunk
		}
		if a, ok := o.(advancer); ok {
			a.Advance(step)
		} else {
			for i := uint64(0); i < step; i++ {
				o.Next()
			}
		}
		n -= step
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
	}
	return nil
}

// SimulateCheckpointed runs one simulation with functional fast-forward
// warmup and checkpointing. With restore == nil it fast-forwards through
// the warmup budget cold, snapshots the post-warmup state, measures, and
// returns the snapshot alongside the run. With restore != nil it loads the
// snapshot — which moves the fresh oracle straight to the warmup boundary,
// replaying none of the warmup — and measures, producing a byte-identical
// run in time proportional to the snapshot, not the warmup. The returned
// snapshot is nil on the restore path.
func SimulateCheckpointed(ctx context.Context, cfg Config, oracle Oracle, workload string, warmup, measure uint64, o SimOptions, restore []byte) (*stats.Run, []byte, error) {
	if restore != nil {
		o.phase("restore")
	}
	c, err := New(cfg, oracle)
	if err != nil {
		return nil, nil, err
	}
	c.SetWorkloadName(workload)
	if o.Probes != nil {
		c.Observe(o.Probes)
	}
	c.hb = o.Heartbeat
	if o.Check {
		c.EnableChecks()
	}
	var snap []byte
	if restore != nil {
		if err := c.RestoreSnapshot(restore); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
	} else {
		o.phase("ffwd")
		if err := c.FastForward(ctx, warmup); err != nil {
			return nil, nil, err
		}
		if snap, err = c.Snapshot(); err != nil {
			return nil, nil, err
		}
	}
	o.phase("measure")
	run, err := c.RunContext(ctx, 0, measure)
	if err != nil {
		return nil, nil, err
	}
	return run, snap, nil
}
