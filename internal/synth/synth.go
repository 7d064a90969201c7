// Package synth generates synthetic frontend-bound workloads that stand in
// for the IPC-1 server/client/SPEC traces used by the paper (which are not
// redistributable). A workload is a static program Image — functions made
// of basic blocks wired together by conditional branches, jumps, loops,
// direct and indirect calls, and returns — plus deterministic behaviour
// models for every branch. Executing the behaviour models yields the
// architecturally-correct dynamic instruction stream (the oracle).
//
// The generator is tuned to the regime the paper selects for: instruction
// footprints far larger than a 32KB L1I, discontinuous control flow, and
// branch working sets that stress 1K-16K-entry BTBs. See DESIGN.md §2.
package synth

import (
	"fmt"
	"sort"

	"fdp/internal/program"
	"fdp/internal/xrand"
)

// Params controls workload generation. All fields must be positive unless
// noted; Validate reports the first violation.
type Params struct {
	// Name identifies the workload class instance (e.g. "server_a").
	Name string
	// Funcs is the number of functions in the program.
	Funcs int
	// Levels is the call-graph depth: function at level L may only call
	// functions at level > L, bounding recursion (there is none) and the
	// dynamic call depth.
	Levels int
	// BlocksPerFuncMean is the mean basic-block count per function.
	BlocksPerFuncMean int
	// BlockLenMean is the mean number of non-terminator instructions per
	// basic block.
	BlockLenMean int

	// Terminator kind fractions for non-final blocks. They need not sum
	// to 1; the remainder becomes conditional branches.
	JumpFrac    float64
	CallFrac    float64
	IndJumpFrac float64
	IndCallFrac float64

	// LoopFrac is the fraction of conditional branches that are backward
	// loop branches (taken trip-1 times, then fall through).
	LoopFrac float64
	// PatternFrac is the fraction of forward conditionals driven by a
	// short repeating direction pattern (highly predictable by TAGE).
	PatternFrac float64
	// StrongBiasFrac is the fraction of remaining forward conditionals
	// that are strongly biased (taken or not-taken ~97% of the time).
	StrongBiasFrac float64
	// TripMean is the mean loop trip count.
	TripMean int
	// IndTargetsMax is the maximum number of targets for an indirect
	// jump or call site (minimum 2).
	IndTargetsMax int
	// MarkovStay is the probability an indirect site repeats its previous
	// target (temporal stickiness; the rest switches uniformly).
	MarkovStay float64
	// HotFraction of functions receives the bulk of call-site edges,
	// giving the program a hot working set plus a long cold tail.
	HotFraction float64
}

// Validate reports whether the parameters are usable.
func (p *Params) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("synth: empty Name")
	case p.Funcs < 2:
		return fmt.Errorf("synth: Funcs = %d, need >= 2", p.Funcs)
	case p.Levels < 2 || p.Levels > p.Funcs:
		return fmt.Errorf("synth: Levels = %d, need 2..Funcs", p.Levels)
	case p.BlocksPerFuncMean < 2:
		return fmt.Errorf("synth: BlocksPerFuncMean = %d, need >= 2", p.BlocksPerFuncMean)
	case p.BlockLenMean < 1:
		return fmt.Errorf("synth: BlockLenMean = %d, need >= 1", p.BlockLenMean)
	case p.JumpFrac < 0 || p.CallFrac < 0 || p.IndJumpFrac < 0 || p.IndCallFrac < 0:
		return fmt.Errorf("synth: negative terminator fraction")
	case p.JumpFrac+p.CallFrac+p.IndJumpFrac+p.IndCallFrac > 0.95:
		return fmt.Errorf("synth: terminator fractions leave <5%% for conditionals")
	case p.LoopFrac < 0 || p.LoopFrac > 1:
		return fmt.Errorf("synth: LoopFrac out of [0,1]")
	case p.TripMean < 2:
		return fmt.Errorf("synth: TripMean = %d, need >= 2", p.TripMean)
	case p.IndTargetsMax < 2:
		return fmt.Errorf("synth: IndTargetsMax = %d, need >= 2", p.IndTargetsMax)
	case p.MarkovStay < 0 || p.MarkovStay >= 1:
		return fmt.Errorf("synth: MarkovStay out of [0,1)")
	case p.HotFraction <= 0 || p.HotFraction > 1:
		return fmt.Errorf("synth: HotFraction out of (0,1]")
	}
	return nil
}

// behaviourKind tags the runtime behaviour model of a branch site.
type behaviourKind uint8

const (
	behNone     behaviourKind = iota // non-branch or unconditional direct
	behBiased                        // conditional: taken with probability p
	behLoop                          // conditional: taken trip-1 times then not
	behPattern                       // conditional: repeating direction pattern
	behIndirect                      // indirect jump/call: target set + markov
	behRotate                        // indirect: deterministic round-robin over targets
)

// branchInfo is the immutable per-site behaviour description, indexed by
// image instruction index.
type branchInfo struct {
	kind    behaviourKind
	p       float64  // behBiased: taken probability
	trip    int32    // behLoop: mean trip count
	tripVar int32    // behLoop: +- uniform jitter on each loop entry
	pattern uint64   // behPattern: direction bits, LSB first
	patLen  uint8    // behPattern: pattern length in bits (1..64)
	stay    float64  // behIndirect: markov stay probability
	targets []uint64 // behIndirect: candidate target addresses
}

// Workload is an immutable generated program plus behaviour descriptions.
// Create execution streams with NewStream; each stream re-derives all
// dynamic state from the workload seed, so two streams from the same
// workload produce identical instruction sequences.
//
// A workload is either *plain* — one program image, one entry, the
// pre-spec shape — or *scenario-shaped* (built by FromSpec from a
// wspec.Spec with more than one component or phase): the image then
// holds every component of every phase back to back, and phases/
// seedRanges drive the mixed, phased execution in Stream.
type Workload struct {
	// Name is the workload identifier, e.g. "server_a".
	Name string
	// Class is the workload family: "server", "client" or "spec" for the
	// built-ins, or whatever class the spec declares.
	Class string
	// Seed is the master seed all randomness derives from.
	Seed uint64
	// SpecHash is the canonical wspec content hash for spec-defined
	// workloads, and "" for the built-in presets. The runner folds it
	// into cache and checkpoint keys, so it is the workload's cache
	// identity; built-ins keep the empty hash so their keys are stable
	// across the spec refactor.
	SpecHash string

	img   *program.Image
	info  []branchInfo // parallel to image instructions
	entry uint64       // entry PC of the first component
	base  uint64       // image base (imageBase; kept per-workload for idx math)

	// Scenario shape; all nil/zero for plain workloads.
	phases      []runPhase      // execution phases in order (phases[0].at == 0)
	switchEvery uint64          // mix scheduling quantum, instructions
	seedRanges  []seedRange     // per-component site-seed ranges
	comps       []ComponentStat // static per-component metadata, phase order
}

// runPhase is one compiled execution phase: from instruction boundary
// `at` onward, execution draws from comps.
type runPhase struct {
	at    uint64
	comps []runComp
}

// runComp is one weighted component of a phase's mix.
type runComp struct {
	entry  uint64
	weight float64
}

// seedRange says sites [lo,hi) derive their behaviour RNG streams from
// seed. Plain workloads have none and fall back to Workload.Seed.
type seedRange struct {
	lo, hi int
	seed   uint64
}

// ComponentStat summarizes the static image of one generated component
// of a workload, for inspection tools (cmd/wlstat). Plain workloads have
// exactly one; scenario workloads have one per (phase, mix component).
type ComponentStat struct {
	// Phase is the execution phase index this component belongs to.
	Phase int
	// PhaseStart is the instruction boundary at which the phase begins
	// (0 for phase 0).
	PhaseStart uint64
	// Index is the component's position within the phase's mix.
	Index int
	// Label names the component's parameter family, e.g. "server_a".
	Label string
	// Weight is the component's share of the mix schedule.
	Weight float64
	// Seed is the fully-derived generation seed (master + offset + churn).
	Seed uint64
	// Entry is the component's entry PC in the combined image.
	Entry uint64
	// Insts and Bytes are the component's static footprint.
	Insts int
	Bytes uint64
	// StaticBranches counts the component's static branch sites.
	StaticBranches int
	// HotFraction is the resolved generator hot-set parameter.
	HotFraction float64
}

// Components returns per-component static metadata in phase order. Plain
// workloads report a single component covering the whole image.
func (w *Workload) Components() []ComponentStat {
	if len(w.comps) > 0 {
		out := make([]ComponentStat, len(w.comps))
		copy(out, w.comps)
		return out
	}
	return []ComponentStat{{
		Label: w.Name, Weight: 1, Seed: w.Seed, Entry: w.entry,
		Insts: w.img.Size(), Bytes: w.img.Bytes(),
		StaticBranches: w.StaticBranches(),
	}}
}

// Mixed reports whether the workload executes as a scenario (mixes or
// phases) rather than a single plain program.
func (w *Workload) Mixed() bool { return len(w.phases) > 0 }

// Phases returns the number of execution phases (1 for plain workloads).
func (w *Workload) Phases() int {
	if len(w.phases) == 0 {
		return 1
	}
	return len(w.phases)
}

// Image returns the static program image.
func (w *Workload) Image() *program.Image { return w.img }

// Entry returns the program entry point.
func (w *Workload) Entry() uint64 { return w.entry }

// FootprintBytes returns the static code footprint.
func (w *Workload) FootprintBytes() uint64 { return w.img.Bytes() }

// StaticBranches returns the number of static branch sites.
func (w *Workload) StaticBranches() int {
	h := w.img.CountByType()
	n := 0
	for t := 0; t < program.NumInstTypes; t++ {
		if program.InstType(t).IsBranch() {
			n += h[t]
		}
	}
	return n
}

// countBranches counts static branch sites among the image instructions
// with global indices [lo,hi).
func countBranches(img *program.Image, lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if img.TypeAt(imageBase + uint64(i)*program.InstBytes).IsBranch() {
			n++
		}
	}
	return n
}

const imageBase = 0x0040_0000 // typical text-segment base

// Generate builds a plain workload from params and a seed. The same
// (params, seed) pair always yields an identical workload.
func Generate(p Params, class string, seed uint64) (*Workload, error) {
	img := program.NewImage(imageBase)
	var info []branchInfo
	entry, err := appendComponent(p, seed, img, &info)
	if err != nil {
		return nil, err
	}
	if err := img.Freeze(); err != nil {
		return nil, fmt.Errorf("synth: %s: %w", p.Name, err)
	}
	w := &Workload{
		Name: p.Name, Class: class, Seed: seed,
		img: img, info: info, entry: entry, base: imageBase,
	}
	w.comps = []ComponentStat{{
		Label: p.Name, Weight: 1, Seed: seed, Entry: entry,
		Insts: img.Size(), Bytes: img.Bytes(),
		StaticBranches: w.StaticBranches(), HotFraction: p.HotFraction,
	}}
	return w, nil
}

// appendComponent generates one program from (params, seed) at the
// image's current end, appending its behaviour table to info, and
// returns the program's entry PC. Addresses and site-seed derivation
// depend only on the append position, so the first component of a
// combined image is byte-identical to the plain workload generated from
// the same (params, seed).
func appendComponent(p Params, seed uint64, img *program.Image, info *[]branchInfo) (uint64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	g := &generator{p: p, rng: xrand.New(xrand.Mix(seed)), base: img.Limit()}
	g.plan()
	g.emit(img, info)
	return g.funcs[0].entry, nil
}

// MustGenerate is Generate that panics on error; for presets known valid.
func MustGenerate(p Params, class string, seed uint64) *Workload {
	w, err := Generate(p, class, seed)
	if err != nil {
		panic(err)
	}
	return w
}

// ---------- generation internals ----------

type termKind uint8

const (
	termCond termKind = iota
	termJump
	termCall
	termIndJump
	termIndCall
	termReturn
)

// blockPlan describes one basic block before layout.
type blockPlan struct {
	nBody int      // non-terminator instructions
	kind  termKind // terminator
	// intra-function targets, as block indices within the function
	condTarget int   // termCond: taken target block
	jumpTarget int   // termJump
	indTargets []int // termIndJump
	// inter-function targets, as function indices
	callee     int   // termCall
	indCallees []int // termIndCall
	// behaviour
	beh branchInfo // kind/p/trip/pattern filled; targets resolved at emit
}

type funcPlan struct {
	level  int
	blocks []blockPlan
	// layout, filled by layout():
	entry      uint64
	blockAddrs []uint64 // start address of each block
	size       uint64   // bytes
}

type generator struct {
	p     Params
	rng   *xrand.SplitMix64
	base  uint64 // address of the first emitted instruction
	funcs []funcPlan
	// weighted callee sampling per level: calleesByLevel[L] lists
	// function indices at level > L, hot functions repeated.
	calleesByLevel [][]int
}

func (g *generator) plan() {
	p := g.p
	g.funcs = make([]funcPlan, p.Funcs)
	// Assign levels: function 0 is the level-0 dispatcher; the rest are
	// spread over levels 1..Levels-1, guaranteeing each level is populated.
	g.funcs[0].level = 0
	for i := 1; i < p.Funcs; i++ {
		if i < p.Levels {
			g.funcs[i].level = i // seed every level
		} else {
			g.funcs[i].level = 1 + g.rng.Intn(p.Levels-1)
		}
	}
	g.buildCalleeTables()
	for i := range g.funcs {
		g.planFunc(i)
	}
	g.layout()
}

// buildCalleeTables prepares weighted candidate lists so hot functions
// (first HotFraction of each level, by index) receive ~80% of call edges.
func (g *generator) buildCalleeTables() {
	p := g.p
	byLevel := make([][]int, p.Levels)
	for i := range g.funcs {
		l := g.funcs[i].level
		byLevel[l] = append(byLevel[l], i)
	}
	g.calleesByLevel = make([][]int, p.Levels)
	for l := 0; l < p.Levels; l++ {
		var pool []int
		for m := l + 1; m < p.Levels; m++ {
			fns := byLevel[m]
			hot := int(float64(len(fns)) * p.HotFraction)
			if hot < 1 {
				hot = 1
			}
			for j, f := range fns {
				w := 1
				if j < hot {
					// Hot functions appear with weight so that they soak up
					// roughly 80% of edges.
					w = 1 + 4*(len(fns)/hot)
				}
				for k := 0; k < w; k++ {
					pool = append(pool, f)
				}
			}
		}
		g.calleesByLevel[l] = pool
	}
}

func (g *generator) pickCallee(level int) (int, bool) {
	pool := g.calleesByLevel[level]
	if len(pool) == 0 {
		return 0, false
	}
	return pool[g.rng.Intn(len(pool))], true
}

func (g *generator) planFunc(fi int) {
	p := g.p
	f := &g.funcs[fi]
	if fi == 0 {
		g.planDispatcher(f)
		return
	}
	n := g.rng.Geometric(float64(p.BlocksPerFuncMean))
	if n < 2 {
		n = 2
	}
	f.blocks = make([]blockPlan, n)
	for bi := 0; bi < n; bi++ {
		b := &f.blocks[bi]
		b.nBody = g.rng.Geometric(float64(p.BlockLenMean)) - 1
		if b.nBody < 0 {
			b.nBody = 0
		}
		if bi == n-1 {
			b.kind = termReturn
			continue
		}
		b.kind = g.pickTermKind(fi, bi, n)
		switch b.kind {
		case termCond:
			g.planCond(f, b, bi, n)
		case termJump:
			b.jumpTarget = bi + 1 + g.rng.Intn(n-bi-1)
		case termCall:
			callee, _ := g.pickCallee(f.level)
			b.callee = callee
		case termIndJump:
			b.indTargets = g.pickForward(bi, n, 2+g.rng.Intn(p.IndTargetsMax-1))
			b.beh = branchInfo{kind: behIndirect, stay: p.MarkovStay}
		case termIndCall:
			k := 2 + g.rng.Intn(p.IndTargetsMax-1)
			seen := map[int]bool{}
			for attempts := 0; len(b.indCallees) < k && attempts < 8*k; attempts++ {
				c, ok := g.pickCallee(f.level)
				if !ok {
					break
				}
				if !seen[c] {
					seen[c] = true
					b.indCallees = append(b.indCallees, c)
				}
			}
			if len(b.indCallees) == 0 {
				// Tiny callee pool: degrade to a direct call.
				b.kind = termCall
				b.callee, _ = g.pickCallee(f.level)
				b.beh = branchInfo{}
				continue
			}
			sort.Ints(b.indCallees)
			b.beh = branchInfo{kind: behIndirect, stay: p.MarkovStay}
		}
	}
}

// planDispatcher builds function 0: the program's outer loop. Every
// non-final block ends in an indirect call whose target set spans the hot
// and cold parts of level >= 1, guaranteeing that execution fans out across
// the whole program on every outer iteration (the workload's "transaction
// loop").
func (g *generator) planDispatcher(f *funcPlan) {
	p := g.p
	n := p.BlocksPerFuncMean
	if n < 6 {
		n = 6
	}
	f.blocks = make([]blockPlan, n)
	for bi := 0; bi < n; bi++ {
		b := &f.blocks[bi]
		b.nBody = g.rng.Geometric(float64(p.BlockLenMean)) - 1
		if b.nBody < 0 {
			b.nBody = 0
		}
		if bi == n-1 {
			b.kind = termReturn
			continue
		}
		k := 4 + g.rng.Intn(2*p.IndTargetsMax)
		seen := map[int]bool{}
		for attempts := 0; len(b.indCallees) < k && attempts < 16*k; attempts++ {
			c, ok := g.pickCallee(0)
			if !ok {
				break
			}
			if !seen[c] {
				seen[c] = true
				b.indCallees = append(b.indCallees, c)
			}
		}
		if len(b.indCallees) == 0 {
			panic("synth: dispatcher has no callees") // Levels >= 2 guarantees some
		}
		sort.Ints(b.indCallees)
		b.kind = termIndCall
		// Dispatcher sites rotate deterministically through their targets:
		// the "transaction mix" cycles through handler types, spreading the
		// working set across the whole program every outer iteration while
		// remaining learnable by the indirect predictor.
		b.beh = branchInfo{kind: behRotate}
	}
}

// pickTermKind draws a terminator kind honouring the configured fractions.
// Call-family terminators degrade to jumps when the function has no
// eligible callees (deepest level).
func (g *generator) pickTermKind(fi, bi, n int) termKind {
	p := g.p
	r := g.rng.Float64()
	canCall := len(g.calleesByLevel[g.funcs[fi].level]) > 0
	canForward := bi+1 < n
	switch {
	case r < p.CallFrac:
		if canCall {
			return termCall
		}
		return termCond
	case r < p.CallFrac+p.IndCallFrac:
		if canCall {
			return termIndCall
		}
		return termCond
	case r < p.CallFrac+p.IndCallFrac+p.JumpFrac:
		if canForward {
			return termJump
		}
		return termCond
	case r < p.CallFrac+p.IndCallFrac+p.JumpFrac+p.IndJumpFrac:
		if canForward && bi+2 < n {
			return termIndJump
		}
		return termCond
	default:
		return termCond
	}
}

func (g *generator) planCond(f *funcPlan, b *blockPlan, bi, n int) {
	p := g.p
	if bi > 0 && g.rng.Bool(p.LoopFrac) {
		// Backward loop branch: taken target is this block or an earlier
		// one; falls through to the next block when the loop exits.
		b.condTarget = g.rng.Intn(bi + 1)
		trip := g.rng.Geometric(float64(p.TripMean))
		if trip < 2 {
			trip = 2
		}
		jitter := int32(0)
		if g.rng.Bool(0.15) {
			jitter = int32(1 + g.rng.Intn(2))
		}
		b.beh = branchInfo{kind: behLoop, trip: int32(trip), tripVar: jitter}
		return
	}
	// Forward conditional: taken target skips ahead.
	b.condTarget = bi + 1 + g.rng.Intn(n-bi-1)
	switch {
	case g.rng.Bool(p.PatternFrac):
		patLen := uint8(2 + g.rng.Intn(10))
		var pat uint64
		for i := uint8(0); i < patLen; i++ {
			if g.rng.Bool(0.5) {
				pat |= 1 << i
			}
		}
		b.beh = branchInfo{kind: behPattern, pattern: pat, patLen: patLen}
	case g.rng.Bool(p.StrongBiasFrac):
		// Strongly biased either way; not-taken bias is more common, as
		// in real code (error paths).
		if g.rng.Bool(0.35) {
			b.beh = branchInfo{kind: behBiased, p: 0.97 + 0.028*g.rng.Float64()}
		} else {
			b.beh = branchInfo{kind: behBiased, p: 0.002 + 0.028*g.rng.Float64()}
		}
	default:
		// Moderately biased data-dependent branches: the fundamentally
		// unpredictable minority that sets the branch MPKI floor.
		b.beh = branchInfo{kind: behBiased, p: 0.12 + 0.76*g.rng.Float64()}
	}
}

// pickForward returns k distinct block indices in (bi, n).
func (g *generator) pickForward(bi, n, k int) []int {
	avail := n - bi - 1
	if k > avail {
		k = avail
	}
	seen := map[int]bool{}
	var out []int
	for len(out) < k {
		t := bi + 1 + g.rng.Intn(avail)
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Ints(out)
	return out
}

// layout assigns addresses: functions in index order, blocks in order,
// starting at the generator's base (the image end for later components
// of a combined scenario image).
func (g *generator) layout() {
	addr := g.base
	for i := range g.funcs {
		f := &g.funcs[i]
		f.entry = addr
		f.blockAddrs = make([]uint64, len(f.blocks))
		for bi := range f.blocks {
			f.blockAddrs[bi] = addr
			addr += uint64(f.blocks[bi].nBody+1) * program.InstBytes
		}
		f.size = addr - f.entry
	}
}

// emit appends the planned program to the image and its behaviour table
// to info. Emission is strictly sequential in address order, so info
// stays index-parallel to the image instructions.
func (g *generator) emit(img *program.Image, info *[]branchInfo) {
	for fi := range g.funcs {
		f := &g.funcs[fi]
		for bi := range f.blocks {
			b := &f.blocks[bi]
			for k := 0; k < b.nBody; k++ {
				img.Append(program.NonBranch)
				*info = append(*info, branchInfo{})
			}
			var pc uint64
			switch b.kind {
			case termCond:
				pc = img.Append(program.CondDirect)
				img.SetTarget(pc, f.blockAddrs[b.condTarget])
			case termJump:
				pc = img.Append(program.Jump)
				img.SetTarget(pc, f.blockAddrs[b.jumpTarget])
			case termCall:
				pc = img.Append(program.Call)
				img.SetTarget(pc, g.funcs[b.callee].entry)
			case termIndJump:
				pc = img.Append(program.IndJump)
				b.beh.targets = make([]uint64, len(b.indTargets))
				for i, t := range b.indTargets {
					b.beh.targets[i] = f.blockAddrs[t]
				}
			case termIndCall:
				pc = img.Append(program.IndCall)
				b.beh.targets = make([]uint64, len(b.indCallees))
				for i, c := range b.indCallees {
					b.beh.targets[i] = g.funcs[c].entry
				}
			case termReturn:
				img.Append(program.Return)
			}
			*info = append(*info, b.beh)
		}
	}
}
