package workload

import (
	"fmt"
	"sort"
)

// BenchmarkNames lists the SPEC2000 INT benchmarks the paper evaluates
// (all but eon, which its toolchain could not compile), in the paper's
// table order.
var BenchmarkNames = []string{
	"bzip2", "crafty", "gcc", "gap", "gzip", "mcf",
	"parser", "perlbmk", "twolf", "vortex", "vprPlace", "vprRoute",
}

// NewBenchmark returns the synthetic model of the named SPEC2000 INT
// benchmark. The models are tuned so the tournament predictor's conditional
// mispredict rate lands near the paper's Table 7 band for that benchmark,
// and so the per-benchmark quirks the paper calls out are present.
func NewBenchmark(name string) (*Spec, error) {
	spec, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, BenchmarkNames)
	}
	// Return a copy so callers can tweak without aliasing the registry.
	return spec.Clone(), nil
}

// IsBenchmark reports whether name is a registered benchmark model.
func IsBenchmark(name string) bool {
	_, ok := specs[name]
	return ok
}

// MustBenchmark is NewBenchmark for known-good names; it panics on error.
func MustBenchmark(name string) *Spec {
	s, err := NewBenchmark(name)
	if err != nil {
		panic(err)
	}
	return s
}

// AllBenchmarks returns fresh specs for every benchmark, in table order.
func AllBenchmarks() []*Spec {
	out := make([]*Spec, 0, len(BenchmarkNames))
	for _, n := range BenchmarkNames {
		out = append(out, MustBenchmark(n))
	}
	return out
}

// RegisteredNames returns all registry names, sorted (the named SPEC models
// plus any test registrations).
func RegisteredNames() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// base returns a spec with the structural defaults shared by all models;
// each benchmark overrides the behavioural knobs.
func base(name string, seed uint64) *Spec {
	return &Spec{
		Name:            name,
		Seed:            seed,
		BlocksPerPhase:  1200,
		AvgBlockLen:     6,
		LoadFrac:        0.24,
		StoreFrac:       0.10,
		LongLatFrac:     0.10,
		DepGeoP:         0.22,
		WorkingSetKB:    256,
		RandomAddrFrac:  0.15,
		JumpFrac:        0.06,
		CallFrac:        0.04,
		ReturnFrac:      0.04,
		IndirectFrac:    0.01,
		IndirectTargets: 3,
	}
}

// mix builds a BranchMix with sensible parameter defaults.
func mix(biased, loop, pattern, correlated, noisy, random, eps float64) BranchMix {
	return BranchMix{
		Biased: biased, Loop: loop, Pattern: pattern,
		Correlated: correlated, Noisy: noisy, Random: random,
		BiasedP:       0.985,
		LoopTripMin:   12,
		LoopTripMax:   48,
		PatternLenMin: 3,
		PatternLenMax: 8,
		NoisyEps:      eps,
		RandomP:       0.5,
	}
}

// trips overrides a mix's loop trip-count range: short trips mean frequent,
// hard-to-predict loop exits; long trips mean near-perfect loop branches.
func trips(m BranchMix, lo, hi int) BranchMix {
	m.LoopTripMin, m.LoopTripMax = lo, hi
	return m
}

var specs = map[string]*Spec{}

func register(s *Spec) {
	if _, dup := specs[s.Name]; dup {
		panic("workload: duplicate benchmark " + s.Name)
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	specs[s.Name] = s
	images[s.Name] = &sharedImage{}
}

// Register adds a copy of a custom benchmark spec to the registry (for
// tests and downstream users building their own workloads). Walkers of
// specs equal to it share one compiled image, so the registry keeps its
// own copy: later changes to s cannot make that image stale.
func Register(s *Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, dup := specs[s.Name]; dup {
		return fmt.Errorf("workload: duplicate benchmark %q", s.Name)
	}
	specs[s.Name] = s.Clone()
	images[s.Name] = &sharedImage{}
	return nil
}

func init() {
	// bzip2 — compression: data-dependent branches, moderately high
	// mispredict rate (paper: 10.5% conditional).
	s := base("bzip2", 0xb21b2)
	s.Phases = []Phase{{Instructions: 1 << 62, Mix: trips(mix(0.28, 0.12, 0.08, 0.06, 0.42, 0.02, 0.125), 8, 20)}}
	register(s)

	// crafty — chess: deep control, mixed predictability (paper: 5.49%).
	s = base("crafty", 0xc4af7)
	s.CallFrac, s.ReturnFrac = 0.07, 0.07
	s.Phases = []Phase{{Instructions: 1 << 62, Mix: mix(0.40, 0.10, 0.12, 0.13, 0.20, 0.035, 0.095)}}
	register(s)

	// gcc — compiler: many short phases with *different* bucket rates;
	// PaCo's periodic MRT refresh lags them (paper: 2.61%, worse RMS).
	s = base("gcc", 0x9cc)
	s.BlocksPerPhase = 900
	s.Phases = []Phase{
		{Instructions: 120_000, Mix: trips(mix(0.60, 0.14, 0.12, 0.08, 0.05, 0.00, 0.035), 40, 100)},
		{Instructions: 90_000, Mix: trips(mix(0.50, 0.12, 0.10, 0.08, 0.18, 0.005, 0.05), 30, 80)},
		{Instructions: 140_000, Mix: trips(mix(0.66, 0.16, 0.12, 0.06, 0.02, 0.00, 0.025), 60, 140)},
		{Instructions: 80_000, Mix: trips(mix(0.45, 0.10, 0.10, 0.10, 0.22, 0.005, 0.065), 24, 60)},
		{Instructions: 110_000, Mix: trips(mix(0.64, 0.15, 0.13, 0.08, 0.03, 0.00, 0.03), 60, 140)},
		{Instructions: 100_000, Mix: trips(mix(0.50, 0.12, 0.10, 0.10, 0.15, 0.01, 0.06), 30, 80)},
	}
	register(s)

	// gap — group theory: globally *correlated* mispredicts (storms);
	// violates PaCo's independence assumption (paper: 5.16%, worse RMS).
	s = base("gap", 0x9a9)
	s.StormEnter, s.StormExit, s.StormFlip = 0.0015, 0.04, 0.38
	s.Phases = []Phase{{Instructions: 1 << 62, Mix: trips(mix(0.55, 0.12, 0.12, 0.10, 0.10, 0.008, 0.12), 16, 48)}}
	register(s)

	// gzip — compression: loop-dominated, fairly predictable (paper: 3.17%).
	s = base("gzip", 0x921b)
	s.Phases = []Phase{{Instructions: 1 << 62, Mix: trips(mix(0.45, 0.22, 0.14, 0.08, 0.10, 0.008, 0.105), 16, 60)}}
	register(s)

	// mcf — network simplex: two clear phases (Figure 3(b)) of different
	// predictability, memory-bound (paper: 4.51%).
	s = base("mcf", 0x3cf)
	s.WorkingSetKB = 2048
	s.RandomAddrFrac = 0.30
	s.Phases = []Phase{
		{Instructions: 500_000, Mix: trips(mix(0.55, 0.14, 0.10, 0.08, 0.12, 0.005, 0.05), 24, 64)},
		{Instructions: 500_000, Mix: trips(mix(0.36, 0.10, 0.08, 0.08, 0.26, 0.012, 0.07), 14, 36)},
	}
	register(s)

	// parser — NLP: mixed behaviour, the paper's reliability-diagram
	// example (paper: 5.26%).
	s = base("parser", 0xaa15e4)
	s.Phases = []Phase{{Instructions: 1 << 62, Mix: mix(0.42, 0.12, 0.12, 0.10, 0.18, 0.03, 0.16)}}
	register(s)

	// perlbmk — interpreter: conditional branches nearly perfect (0.11%)
	// but >95% of mispredicts from one hot indirect dispatch the JRS table
	// cannot see.
	s = base("perlbmk", 0x9e41)
	s.IndirectFrac = 0.22
	s.IndirectTargets = 24
	m := mix(0.80, 0.04, 0.14, 0.015, 0.005, 0.00, 0.02)
	m.BiasedP = 0.999
	m.LoopTripMin, m.LoopTripMax = 100, 240
	s.Phases = []Phase{{Instructions: 1 << 62, Mix: m}}
	register(s)

	// twolf — place & route: very hard branches (paper: 14.8%).
	s = base("twolf", 0x720f)
	s.Phases = []Phase{{Instructions: 1 << 62, Mix: trips(mix(0.15, 0.08, 0.06, 0.04, 0.55, 0.03, 0.115), 7, 14)}}
	register(s)

	// vortex — OO database: extremely predictable (paper: 0.65%).
	s = base("vortex", 0x60e7e)
	s.CallFrac, s.ReturnFrac = 0.08, 0.08
	m = mix(0.70, 0.05, 0.15, 0.08, 0.02, 0.00, 0.10)
	m.BiasedP = 0.998
	m.LoopTripMin, m.LoopTripMax = 100, 240
	s.Phases = []Phase{{Instructions: 1 << 62, Mix: m}}
	register(s)

	// vprPlace — placement annealing: random accept/reject (paper: 11.7%).
	s = base("vprPlace", 0x6941)
	s.Phases = []Phase{{Instructions: 1 << 62, Mix: trips(mix(0.18, 0.08, 0.06, 0.04, 0.58, 0.012, 0.10), 7, 16)}}
	register(s)

	// vprRoute — maze router (paper: 11.9%).
	s = base("vprRoute", 0x6942)
	s.Phases = []Phase{{Instructions: 1 << 62, Mix: trips(mix(0.16, 0.10, 0.06, 0.04, 0.58, 0.014, 0.105), 7, 16)}}
	register(s)
}
