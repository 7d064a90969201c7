// spec.go compiles declarative workload specs (internal/wspec) into
// executable Workloads. The three preset families are themselves
// expressed as built-in specs (see presets.go), so named workloads and
// @file.yaml scenarios flow through the same compiler.
package synth

import (
	"fmt"

	"fdp/internal/program"
	"fdp/internal/wspec"
)

// churnStep spaces reseeded phase generations far apart in seed space so
// churned seeds cannot collide with neighbouring seed_offsets.
const churnStep = 0x9e37_79b9_7f4a_7c15

// presetParams maps a spec preset name to its parameter family.
// wspec.Presets lists the valid names; TestPresetsCompile keeps the two
// in lock-step.
func presetParams(preset string, variant int) (Params, error) {
	switch preset {
	case "server":
		return ServerParams(variant), nil
	case "client":
		return ClientParams(variant), nil
	case "spec":
		return SpecParams(variant), nil
	}
	return Params{}, fmt.Errorf("synth: unknown preset %q (have server, client, spec)", preset)
}

// applyOverrides folds the spec's per-component parameter overrides into
// the preset parameters.
func applyOverrides(p *Params, o *wspec.Overrides) {
	if o.Funcs != nil {
		p.Funcs = *o.Funcs
	}
	if o.Levels != nil {
		p.Levels = *o.Levels
	}
	if o.BlocksPerFuncMean != nil {
		p.BlocksPerFuncMean = *o.BlocksPerFuncMean
	}
	if o.BlockLenMean != nil {
		p.BlockLenMean = *o.BlockLenMean
	}
	if o.TripMean != nil {
		p.TripMean = *o.TripMean
	}
	if o.IndTargetsMax != nil {
		p.IndTargetsMax = *o.IndTargetsMax
	}
	if o.JumpFrac != nil {
		p.JumpFrac = *o.JumpFrac
	}
	if o.CallFrac != nil {
		p.CallFrac = *o.CallFrac
	}
	if o.IndJumpFrac != nil {
		p.IndJumpFrac = *o.IndJumpFrac
	}
	if o.IndCallFrac != nil {
		p.IndCallFrac = *o.IndCallFrac
	}
	if o.LoopFrac != nil {
		p.LoopFrac = *o.LoopFrac
	}
	if o.PatternFrac != nil {
		p.PatternFrac = *o.PatternFrac
	}
	if o.StrongBiasFrac != nil {
		p.StrongBiasFrac = *o.StrongBiasFrac
	}
	if o.MarkovStay != nil {
		p.MarkovStay = *o.MarkovStay
	}
	if o.HotFraction != nil {
		p.HotFraction = *o.HotFraction
	}
}

// compComp is one fully-resolved component of one phase: concrete
// generator parameters, a derived seed, a mix weight and a short
// family label (e.g. "server_a") for inspection tools.
type compComp struct {
	p      Params
	seed   uint64
	weight float64
	label  string
}

// resolvePhases expands the spec into per-phase resolved component
// lists. Phase 0 is the spec's mix; a reseed phase inherits the
// previous phase's components with the churn offset folded into every
// seed (fresh program images, same shape — a code deploy); a mix phase
// replaces the blend.
func resolvePhases(sp *wspec.Spec) ([][]compComp, error) {
	resolveMix := func(mix []wspec.Component, churn uint64, phase int) ([]compComp, error) {
		out := make([]compComp, len(mix))
		for i, c := range mix {
			p, err := presetParams(c.Preset, c.Variant)
			if err != nil {
				return nil, err
			}
			applyOverrides(&p, &c.Params)
			p.Name = fmt.Sprintf("%s/p%d.%d:%s_%c", sp.Name, phase, i, c.Preset, 'a'+c.Variant)
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("wspec %s: phase %d, component %d (%s variant %d): %w",
					sp.Name, phase, i, c.Preset, c.Variant, err)
			}
			out[i] = compComp{
				p: p, seed: sp.Seed + c.SeedOffset + churn, weight: c.Weight,
				label: fmt.Sprintf("%s_%c", c.Preset, 'a'+c.Variant),
			}
		}
		return out, nil
	}

	churn := uint64(0)
	first, err := resolveMix(sp.Mix, 0, 0)
	if err != nil {
		return nil, err
	}
	phases := [][]compComp{first}
	curMix := sp.Mix
	for pi, ph := range sp.Phases {
		if ph.Reseed > 0 {
			churn += ph.Reseed * churnStep
		} else {
			curMix = ph.Mix
		}
		comps, err := resolveMix(curMix, churn, pi+1)
		if err != nil {
			return nil, err
		}
		phases = append(phases, comps)
	}
	return phases, nil
}

// FromSpec compiles a validated workload spec into a Workload. A spec
// with one component and no phases compiles to a plain workload
// (byte-identical to Generate with the same parameters and seed); any
// other shape compiles every component of every phase back to back into
// one combined image executed by the mixed, phased Stream. The
// workload carries the spec's canonical content hash, which the runner
// folds into cache and checkpoint keys.
func FromSpec(sp *wspec.Spec) (*Workload, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	phases, err := resolvePhases(sp)
	if err != nil {
		return nil, err
	}

	if len(phases) == 1 && len(phases[0]) == 1 {
		c := phases[0][0]
		c.p.Name = sp.Name
		w, err := Generate(c.p, sp.Class, c.seed)
		if err != nil {
			return nil, err
		}
		w.SpecHash = sp.Hash()
		w.comps[0].Label = c.label
		return w, nil
	}

	img := program.NewImage(imageBase)
	var info []branchInfo
	var runPhases []runPhase
	var ranges []seedRange
	var compStats []ComponentStat
	at := uint64(0)
	for pi, comps := range phases {
		if pi > 0 {
			at = sp.Phases[pi-1].At
		}
		rp := runPhase{at: at, comps: make([]runComp, len(comps))}
		for ci, c := range comps {
			lo := len(info)
			entry, err := appendComponent(c.p, c.seed, img, &info)
			if err != nil {
				return nil, err
			}
			ranges = append(ranges, seedRange{lo: lo, hi: len(info), seed: c.seed})
			rp.comps[ci] = runComp{entry: entry, weight: c.weight}
			compStats = append(compStats, ComponentStat{
				Phase: pi, PhaseStart: at, Index: ci, Label: c.label,
				Weight: c.weight, Seed: c.seed, Entry: entry,
				Insts:          len(info) - lo,
				Bytes:          uint64(len(info)-lo) * program.InstBytes,
				StaticBranches: countBranches(img, lo, len(info)),
				HotFraction:    c.p.HotFraction,
			})
		}
		runPhases = append(runPhases, rp)
	}
	if err := img.Freeze(); err != nil {
		return nil, fmt.Errorf("synth: %s: %w", sp.Name, err)
	}
	return &Workload{
		Name: sp.Name, Class: sp.Class, Seed: sp.Seed, SpecHash: sp.Hash(),
		img: img, info: info, entry: runPhases[0].comps[0].entry, base: imageBase,
		phases: runPhases, switchEvery: sp.SwitchEvery, seedRanges: ranges,
		comps: compStats,
	}, nil
}

// LoadSpecFile reads, validates and compiles the workload spec at path.
func LoadSpecFile(path string) (*Workload, error) {
	sp, err := wspec.Load(path)
	if err != nil {
		return nil, err
	}
	return FromSpec(sp)
}
