package synth

import (
	"fdp/internal/program"
	"fdp/internal/xrand"
)

// branchState is the mutable per-site runtime state of a behaviour model.
type branchState struct {
	rng     xrand.SplitMix64 // biased draws and markov switches
	pos     int32            // loop iteration / pattern position
	curTrip int32            // loop: trip count for the current activation
	cur     int32            // indirect: index of the current target
}

// Stream executes a workload's behaviour models, producing the
// architecturally-correct dynamic instruction sequence. It implements
// program.Stream. Streams are infinite: when the entry function returns
// with an empty call stack the program restarts at the entry point.
//
// Oracle side-channels (PeekDirection, PeekTarget) expose the *next*
// outcome of a site without advancing it; they exist solely to implement
// the paper's idealized predictors ("perfect direction", "Perfect All").
//
// Scenario-shaped workloads (see FromSpec) additionally interleave the
// components of the current phase's mix: a deficit scheduler hands the
// front end to one component for switchEvery instructions at a time,
// each component keeping its own PC and call stack, and phase
// boundaries swap in the next phase's fresh component contexts at an
// absolute instruction count. All of it is a pure function of the
// workload, so replaying Next (Advance) reconstructs the exact state, and
// SaveState/LoadState capture it for checkpoints.
type Stream struct {
	w     *Workload
	pc    uint64
	state []branchState
	stack []uint64
	entry uint64 // restart target of the active program (Return underflow)

	// Mixed-execution state; unused for plain workloads.
	phase   int      // index into w.phases
	ctxs    []mixCtx // per-component suspended contexts for the phase
	active  int      // index of the running component
	quantum uint64   // instructions left before the scheduler may switch

	// Executed counts dynamic instructions delivered by Next.
	Executed uint64
}

// mixCtx is one mix component's suspended execution context.
type mixCtx struct {
	pc    uint64
	stack []uint64
	ran   uint64 // instructions this component has received in this phase
}

// NewStream creates a fresh deterministic execution of the workload.
// Streams created from the same workload are identical.
func (w *Workload) NewStream() *Stream {
	s := &Stream{
		w:     w,
		pc:    w.entry,
		entry: w.entry,
		state: make([]branchState, len(w.info)),
		stack: make([]uint64, 0, 64),
	}
	ranges := w.seedRanges
	if ranges == nil {
		ranges = []seedRange{{lo: 0, hi: len(w.info), seed: w.Seed}}
	}
	for _, r := range ranges {
		for i := r.lo; i < r.hi; i++ {
			bi := &w.info[i]
			if bi.kind == behNone {
				continue
			}
			s.state[i].rng.Seed(xrand.Mix(r.seed ^ uint64(i)*0x9e37_79b9))
			if bi.kind == behLoop {
				s.state[i].curTrip = s.drawTrip(bi, &s.state[i])
			}
		}
	}
	if len(w.phases) > 0 {
		s.enterPhase(0)
	}
	return s
}

// enterPhase resets the mix state for phase pi: every component gets a
// fresh context at its entry, and the scheduler starts from component 0
// (the deficit rule's tie break on all-zero usage).
func (s *Stream) enterPhase(pi int) {
	ph := &s.w.phases[pi]
	s.phase = pi
	s.ctxs = make([]mixCtx, len(ph.comps))
	for i := range ph.comps {
		s.ctxs[i] = mixCtx{pc: ph.comps[i].entry, stack: make([]uint64, 0, 64)}
	}
	s.active = 0
	s.pc = ph.comps[0].entry
	s.stack = s.ctxs[0].stack
	s.entry = ph.comps[0].entry
	s.quantum = s.w.switchEvery
}

// mixSwitch runs the scenario scheduler after an instruction retires:
// enter the next phase at its boundary, otherwise rotate the active
// component when the quantum is spent. It returns the redirected next
// PC when a switch happened. The caller folds that PC into the retiring
// instruction's NextPC, so the oracle contract (next executed PC ==
// previous DynInst.NextPC) holds across switches — architecturally a
// switch is an asynchronous redirect, like an OS context switch, and
// the front end charges one unavoidable misprediction for it.
func (s *Stream) mixSwitch() (uint64, bool) {
	if s.phase+1 < len(s.w.phases) && s.Executed >= s.w.phases[s.phase+1].at {
		s.enterPhase(s.phase + 1)
		return s.pc, true
	}
	if s.quantum > 0 {
		return 0, false
	}
	comps := s.w.phases[s.phase].comps
	s.quantum = s.w.switchEvery
	if len(comps) < 2 {
		return 0, false
	}
	// Deficit scheduling: resume the component with the lowest weighted
	// usage (ties break to the lowest index), so long-run instruction
	// shares converge to the mix weights while the schedule stays exactly
	// reproducible.
	s.ctxs[s.active].pc = s.pc
	s.ctxs[s.active].stack = s.stack
	best, bestScore := 0, float64(s.ctxs[0].ran)/comps[0].weight
	for j := 1; j < len(comps); j++ {
		if score := float64(s.ctxs[j].ran) / comps[j].weight; score < bestScore {
			best, bestScore = j, score
		}
	}
	if best == s.active {
		return 0, false
	}
	s.active = best
	s.pc = s.ctxs[best].pc
	s.stack = s.ctxs[best].stack
	s.entry = comps[best].entry
	return s.pc, true
}

// Image returns the static image the stream executes from.
func (s *Stream) Image() *program.Image { return s.w.Image() }

// PC returns the address of the next instruction Next will return.
func (s *Stream) PC() uint64 { return s.pc }

// Depth returns the current call-stack depth.
func (s *Stream) Depth() int { return len(s.stack) }

func (s *Stream) idx(pc uint64) int {
	return int((pc - s.w.base) / program.InstBytes)
}

func (s *Stream) drawTrip(bi *branchInfo, st *branchState) int32 {
	t := bi.trip
	if bi.tripVar > 0 {
		t += int32(st.rng.Intn(int(2*bi.tripVar+1))) - bi.tripVar
	}
	if t < 2 {
		t = 2
	}
	return t
}

// Next returns the next executed instruction and advances the stream.
func (s *Stream) Next() program.DynInst {
	si, ok := s.w.img.At(s.pc)
	if !ok {
		panic("synth: stream PC escaped image") // generator invariant
	}
	d := program.DynInst{SI: si}
	switch si.Type {
	case program.NonBranch:
		d.NextPC = si.FallThrough()
	case program.CondDirect:
		taken := s.stepCond(s.idx(s.pc))
		d.Taken = taken
		if taken {
			d.NextPC = si.Target
		} else {
			d.NextPC = si.FallThrough()
		}
	case program.Jump:
		d.Taken = true
		d.NextPC = si.Target
	case program.Call:
		d.Taken = true
		d.NextPC = si.Target
		s.stack = append(s.stack, si.FallThrough())
	case program.IndJump:
		d.Taken = true
		d.NextPC = s.stepIndirect(s.idx(s.pc))
	case program.IndCall:
		d.Taken = true
		d.NextPC = s.stepIndirect(s.idx(s.pc))
		s.stack = append(s.stack, si.FallThrough())
	case program.Return:
		d.Taken = true
		if n := len(s.stack); n > 0 {
			d.NextPC = s.stack[n-1]
			s.stack = s.stack[:n-1]
		} else {
			d.NextPC = s.entry // program outer loop (active component's entry)
		}
	}
	s.pc = d.NextPC
	s.Executed++
	if len(s.w.phases) > 0 {
		s.ctxs[s.active].ran++
		if s.quantum > 0 {
			s.quantum--
		}
		// Scheduling points are NonBranch retirements only: a switch after
		// a branch would fold the redirect target into that branch's
		// architectural NextPC and train the predictors with targets no
		// real branch ever produces. After a plain instruction the
		// redirect is an honest asynchronous transfer.
		if si.Type == program.NonBranch {
			if npc, switched := s.mixSwitch(); switched {
				d.NextPC = npc
			}
		}
	}
	return d
}

// Advance executes n instructions without returning them, replaying the
// behaviour models (every RNG draw, loop position and stack operation) to
// reach the state a full execution would. It costs O(n); checkpoint
// restores do not use it, since SaveState/LoadState carry the position.
func (s *Stream) Advance(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.Next()
	}
}

// stepCond advances the conditional behaviour at image index i and returns
// the direction.
func (s *Stream) stepCond(i int) bool {
	bi := &s.w.info[i]
	st := &s.state[i]
	switch bi.kind {
	case behBiased:
		return st.rng.Bool(bi.p)
	case behLoop:
		st.pos++
		if st.pos < st.curTrip {
			return true
		}
		st.pos = 0
		st.curTrip = s.drawTrip(bi, st)
		return false
	case behPattern:
		taken := bi.pattern>>uint(st.pos)&1 == 1
		st.pos++
		if st.pos >= int32(bi.patLen) {
			st.pos = 0
		}
		return taken
	default:
		// Degenerate site (e.g. generated with kind behNone); treat as
		// never taken so execution still progresses.
		return false
	}
}

// stepIndirect advances the indirect behaviour at image index i and
// returns the chosen target.
func (s *Stream) stepIndirect(i int) uint64 {
	bi := &s.w.info[i]
	st := &s.state[i]
	if len(bi.targets) == 1 {
		return bi.targets[0]
	}
	if bi.kind == behRotate {
		st.cur = (st.cur + 1) % int32(len(bi.targets))
		return bi.targets[st.cur]
	}
	if !st.rng.Bool(bi.stay) {
		st.cur = int32(st.rng.Intn(len(bi.targets)))
	}
	return bi.targets[st.cur]
}

// PeekDirection returns the direction the conditional branch at pc would
// take on its next execution, without advancing its state. It reports
// false for unknown sites. This is the oracle used by the "perfect
// direction predictor" configuration.
func (s *Stream) PeekDirection(pc uint64) bool {
	if !s.w.img.Contains(pc) {
		return false
	}
	i := s.idx(pc)
	bi := &s.w.info[i]
	st := &s.state[i]
	switch bi.kind {
	case behBiased:
		clone := st.rng // value copy
		return clone.Bool(bi.p)
	case behLoop:
		return st.pos+1 < st.curTrip
	case behPattern:
		return bi.pattern>>uint(st.pos)&1 == 1
	}
	return false
}

// PeekTarget returns the target the indirect branch at pc would choose on
// its next execution, without advancing its state. ok is false for
// non-indirect sites. This is the oracle used by "Perfect All".
func (s *Stream) PeekTarget(pc uint64) (uint64, bool) {
	if !s.w.img.Contains(pc) {
		return 0, false
	}
	i := s.idx(pc)
	bi := &s.w.info[i]
	if (bi.kind != behIndirect && bi.kind != behRotate) || len(bi.targets) == 0 {
		return 0, false
	}
	st := &s.state[i]
	if len(bi.targets) == 1 {
		return bi.targets[0], true
	}
	if bi.kind == behRotate {
		return bi.targets[(st.cur+1)%int32(len(bi.targets))], true
	}
	clone := st.rng
	cur := st.cur
	if !clone.Bool(bi.stay) {
		cur = int32(clone.Intn(len(bi.targets)))
	}
	return bi.targets[cur], true
}

// PeekReturnTarget returns the address the next executed Return will jump
// to (top of the architectural call stack, or the entry on underflow).
func (s *Stream) PeekReturnTarget() uint64 {
	if n := len(s.stack); n > 0 {
		return s.stack[n-1]
	}
	return s.entry
}
