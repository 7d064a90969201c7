package synth

import (
	"fmt"
	"strings"
	"sync"

	"fdp/internal/wspec"
)

// ServerParams returns the parameter set for the "server" workload class:
// multi-hundred-KB code footprints, deep call graphs, heavy discontinuity.
// variant (0..3) perturbs sizes so the four server workloads differ.
func ServerParams(variant int) Params {
	return Params{
		Name:              fmt.Sprintf("server_%c", 'a'+variant),
		Funcs:             2800 + 350*variant,
		Levels:            8,
		BlocksPerFuncMean: 12 + variant,
		BlockLenMean:      6,
		JumpFrac:          0.08,
		CallFrac:          0.24,
		IndJumpFrac:       0.02,
		IndCallFrac:       0.04,
		LoopFrac:          0.08,
		PatternFrac:       0.16,
		StrongBiasFrac:    0.93,
		TripMean:          4,
		IndTargetsMax:     10,
		MarkovStay:        0.78,
		HotFraction:       0.45,
	}
}

// ClientParams returns the "client" class: mid footprint, moderate call
// depth, a mix of loops and branchy code.
func ClientParams(variant int) Params {
	return Params{
		Name:              fmt.Sprintf("client_%c", 'a'+variant),
		Funcs:             1350 + 180*variant,
		Levels:            7,
		BlocksPerFuncMean: 11 + variant,
		BlockLenMean:      6,
		JumpFrac:          0.08,
		CallFrac:          0.20,
		IndJumpFrac:       0.03,
		IndCallFrac:       0.03,
		LoopFrac:          0.14,
		PatternFrac:       0.18,
		StrongBiasFrac:    0.92,
		TripMean:          6,
		IndTargetsMax:     8,
		MarkovStay:        0.82,
		HotFraction:       0.45,
	}
}

// SpecParams returns the "spec" class: smaller, loopier codes in the style
// of SPEC CPU workloads that still exceed the 32KB L1I when warm.
func SpecParams(variant int) Params {
	return Params{
		Name:              fmt.Sprintf("spec_%c", 'a'+variant),
		Funcs:             700 + 90*variant,
		Levels:            6,
		BlocksPerFuncMean: 14 + 2*variant,
		BlockLenMean:      7,
		JumpFrac:          0.07,
		CallFrac:          0.15,
		IndJumpFrac:       0.02,
		IndCallFrac:       0.02,
		LoopFrac:          0.17,
		PatternFrac:       0.20,
		StrongBiasFrac:    0.88,
		TripMean:          8,
		IndTargetsMax:     6,
		MarkovStay:        0.88,
		HotFraction:       0.60,
	}
}

// classSeeds gives every workload an independent master seed.
const (
	serverSeedBase = 0x5eed_0001
	clientSeedBase = 0x5eed_1001
	specSeedBase   = 0x5eed_2001
)

// builtinSpec expresses one standard workload as a workload spec: one
// component, no phases, the class seed base plus the variant as the
// master seed. Built-ins compile through the same FromSpec path as
// @file.yaml scenarios — presets are just specs the binary ships with.
func builtinSpec(class string, variant int, seedOffset uint64) *wspec.Spec {
	var base uint64
	switch class {
	case "server":
		base = serverSeedBase
	case "client":
		base = clientSeedBase
	case "spec":
		base = specSeedBase
	default:
		panic("synth: unknown builtin class " + class)
	}
	return &wspec.Spec{
		Version:     wspec.Version,
		Name:        fmt.Sprintf("%s_%c", class, 'a'+variant),
		Class:       class,
		Seed:        base + uint64(variant) + seedOffset,
		SwitchEvery: wspec.DefaultSwitchEvery,
		Mix:         []wspec.Component{{Preset: class, Variant: variant, Weight: 1}},
	}
}

// builtinSpecs returns the 12 standard workload specs (4 per class) in
// suite order.
func builtinSpecs(seedOffset uint64) []*wspec.Spec {
	var specs []*wspec.Spec
	for _, class := range []string{"server", "client", "spec"} {
		for v := 0; v < 4; v++ {
			specs = append(specs, builtinSpec(class, v, seedOffset))
		}
	}
	return specs
}

var (
	stdOnce sync.Once
	stdSet  []*Workload
)

// StandardWorkloads returns the 12 standard workloads (4 per class) used
// by all paper experiments. The set is generated once and cached; workloads
// are immutable and safe to share across goroutines (each run creates its
// own Stream).
func StandardWorkloads() []*Workload {
	stdOnce.Do(func() {
		stdSet = compileBuiltins(0)
	})
	return stdSet
}

// compileBuiltins compiles the built-in specs. Built-ins carry an empty
// SpecHash: their cache identity is the (name, seed) pair exactly as
// before the spec refactor, so every pre-existing result cache,
// checkpoint and golden manifest stays valid.
func compileBuiltins(seedOffset uint64) []*Workload {
	var ws []*Workload
	for _, sp := range builtinSpecs(seedOffset) {
		w, err := FromSpec(sp)
		if err != nil {
			panic(err) // built-in specs are known valid
		}
		w.SpecHash = ""
		ws = append(ws, w)
	}
	return ws
}

// WorkloadsWithSeedOffset generates the full 12-workload suite with every
// master seed shifted by offset (offset 0 equals StandardWorkloads but is
// regenerated, not cached). Use for seed-sensitivity studies: the same
// program classes, different random programs and behaviours.
func WorkloadsWithSeedOffset(offset uint64) []*Workload {
	return compileBuiltins(offset)
}

// ByName returns the standard workload with the given name, or nil.
func ByName(name string) *Workload {
	for _, w := range StandardWorkloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// resolveToken resolves one workload token: a standard workload name, or
// "@path/to/spec.yaml" for a declarative workload spec.
func resolveToken(token string) (*Workload, error) {
	if strings.HasPrefix(token, "@") {
		path := strings.TrimPrefix(token, "@")
		if path == "" {
			return nil, fmt.Errorf("synth: empty spec reference %q (use @path/to/spec.yaml)", token)
		}
		w, err := LoadSpecFile(path)
		if err != nil {
			return nil, fmt.Errorf("synth: workload spec %q: %w", path, err)
		}
		return w, nil
	}
	if w := ByName(token); w != nil {
		return w, nil
	}
	return nil, fmt.Errorf("synth: unknown workload %q (known workloads: %s; or @file.yaml for a workload spec)",
		token, strings.Join(Names(), ", "))
}

// Resolve returns the named workloads in the given order, failing on the
// first unknown name. Each name may be a standard workload or a
// @file.yaml spec reference.
func Resolve(names ...string) ([]*Workload, error) {
	ws := make([]*Workload, 0, len(names))
	for _, name := range names {
		w, err := resolveToken(name)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// ParseList resolves a comma-separated workload list as the command-line
// tools accept it: "all" (or "") yields the full standard set; otherwise
// each token is a standard workload name or a "@file.yaml" workload-spec
// reference. Whitespace around tokens is ignored. This is the one shared
// parser for every frontend's -workload flag; a failed token is reported
// with its position, the known workload names and the spec syntax.
func ParseList(s string) ([]*Workload, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return StandardWorkloads(), nil
	}
	tokens := strings.Split(s, ",")
	ws := make([]*Workload, 0, len(tokens))
	for i, token := range tokens {
		token = strings.TrimSpace(token)
		if token == "" {
			return nil, fmt.Errorf("synth: workload list %q: empty entry at position %d (entries are workload names or @file.yaml spec references)", s, i+1)
		}
		w, err := resolveToken(token)
		if err != nil {
			return nil, fmt.Errorf("workload list entry %d: %w", i+1, err)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// ParseWorkloadFlags resolves the paired -workload / -workload-spec
// frontend flags through ParseList. specFiles is a comma-separated list
// of workload-spec paths, each equivalent to an "@path" entry in the
// -workload list. When the -workload flag was left at its default
// (workloadsExplicit=false) and spec files are given, the specs replace
// the default list rather than adding to it.
func ParseWorkloadFlags(workloads, specFiles string, workloadsExplicit bool) ([]*Workload, error) {
	if strings.TrimSpace(specFiles) == "" {
		return ParseList(workloads)
	}
	var refs []string
	for i, p := range strings.Split(specFiles, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("synth: spec file list %q: empty entry at position %d", specFiles, i+1)
		}
		refs = append(refs, "@"+p)
	}
	specList := strings.Join(refs, ",")
	if workloadsExplicit && strings.TrimSpace(workloads) != "" {
		return ParseList(workloads + "," + specList)
	}
	return ParseList(specList)
}

// Names returns the names of the standard workloads in order.
func Names() []string {
	ws := StandardWorkloads()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}
