package workload

import (
	"math/bits"

	"paco/internal/rng"
)

// BranchClass enumerates the behavioural classes of static conditional
// branches. The mix of classes (and their parameters) is what gives each
// synthetic benchmark its characteristic mispredict rate and MDC-bucket
// stratification.
type BranchClass uint8

// Branch behaviour classes.
const (
	// ClassBiased branches are taken with a fixed probability (usually
	// near 0 or 1): highly predictable by a bimodal predictor, with a
	// residual mispredict rate of min(p, 1-p).
	ClassBiased BranchClass = iota
	// ClassLoop branches are taken tripCount-1 consecutive times then
	// fall through once. Long trip counts mispredict only at the exit;
	// short ones may be learned by the history-based component.
	ClassLoop
	// ClassPattern branches repeat a fixed short direction pattern:
	// learnable by gshare, essentially perfectly predicted once warm.
	ClassPattern
	// ClassCorrelated branches compute their direction from the recent
	// global outcome history: mispredicted by bimodal, learned by gshare.
	ClassCorrelated
	// ClassNoisy branches follow a pattern but flip with probability
	// epsilon: mispredict rate ~= epsilon regardless of training.
	ClassNoisy
	// ClassRandom branches are taken with probability ~0.5 independently:
	// ~50% mispredict rate, the hardest class.
	ClassRandom
	numClasses
)

// String returns the class name.
func (c BranchClass) String() string {
	switch c {
	case ClassBiased:
		return "biased"
	case ClassLoop:
		return "loop"
	case ClassPattern:
		return "pattern"
	case ClassCorrelated:
		return "correlated"
	case ClassNoisy:
		return "noisy"
	case ClassRandom:
		return "random"
	default:
		return "unknown"
	}
}

// globalCtx carries the cross-branch state outcome generators may consult:
// the recent actual-outcome history (for correlated branches) and the
// mispredict-storm state (for gap-style clustered behaviour).
type globalCtx struct {
	history uint32 // recent actual outcomes, bit 0 = most recent

	stormActive bool
	stormEnter  float64 // probability per branch of entering a storm
	stormExit   float64 // probability per branch of leaving a storm
	stormFlip   float64 // probability a storm flips this outcome
	stormRNG    *rng.RNG
}

func (g *globalCtx) push(taken bool) {
	g.history <<= 1
	if taken {
		g.history |= 1
	}
}

// maybeStormFlip applies the gap-style correlated-mispredict storm: storms
// start and stop at random, and while active they randomly flip branch
// outcomes, producing globally clustered mispredicts that violate PaCo's
// independence assumption exactly the way the paper describes.
func (g *globalCtx) maybeStormFlip(taken bool) bool {
	if g.stormRNG == nil || (g.stormEnter <= 0 && !g.stormActive) {
		return taken
	}
	if g.stormActive {
		if g.stormRNG.Bool(g.stormExit) {
			g.stormActive = false
		}
	} else if g.stormRNG.Bool(g.stormEnter) {
		g.stormActive = true
	}
	if g.stormActive && g.stormRNG.Bool(g.stormFlip) {
		return !taken
	}
	return taken
}

// branchGen is one static conditional branch's outcome generator: its
// class, the class parameters, and the RNG state its private stream
// starts from (so behaviour is independent of CFG interleaving). It is
// part of the immutable image; the stream's evolving state lives in the
// walker's branchState.
type branchGen struct {
	// p is the taken probability of biased and random branches and of a
	// noisy branch's underlying bias; for a loop branch it is the exit
	// hazard 1/trip.
	p float64
	// eps is a noisy branch's flip probability.
	eps float64
	// rng0 is the branch's RNG state before its first execution.
	rng0 rng.RNG
	// mask selects the global history bits whose parity a pattern or
	// correlated branch follows; invert negates that parity.
	mask   uint32
	invert bool
	class  BranchClass
}

// next draws one outcome. Loop branches model a data-dependent loop
// backedge: taken until exit, with a geometric (memoryless) exit hazard
// of 1/trip per iteration. Real loop trip counts are mostly
// data-dependent at this granularity; a fixed deterministic trip would
// make windows between exits certainly safe, which no fetch-time
// predictor can know, and would break the independence assumption far
// more than SPEC-like code does.
func (b *branchGen) next(g *globalCtx, r *rng.RNG) bool {
	switch b.class {
	case ClassLoop:
		return !r.Bool(b.p)
	case ClassPattern, ClassCorrelated:
		taken := bits.OnesCount32(g.history&b.mask)&1 == 1
		return taken != b.invert
	case ClassNoisy:
		taken := r.Bool(b.p)
		if r.Bool(b.eps) {
			return !taken
		}
		return taken
	default: // ClassBiased, ClassRandom
		return r.Bool(b.p)
	}
}

// branchState is one static branch's per-walker state: its RNG stream
// and diagnostic outcome counters.
type branchState struct {
	rng      rng.RNG
	executed uint64
	taken    uint64
}

// next draws the branch's outcome, applies the storm, and records it in
// the global history and the counters.
func (st *branchState) next(gen *branchGen, g *globalCtx) bool {
	t := gen.next(g, &st.rng)
	t = g.maybeStormFlip(t)
	g.push(t)
	st.executed++
	if t {
		st.taken++
	}
	return t
}

// BranchMix describes the static conditional branch population of one
// phase: relative weights of each class and the class parameters.
type BranchMix struct {
	// Weights by class; zero-weight classes produce no branches.
	Biased, Loop, Pattern, Correlated, Noisy, Random float64

	// BiasedP is the taken probability of biased branches (values near 1;
	// the generator mirrors half of them to near 0).
	BiasedP float64
	// LoopTripMin/Max bound loop trip counts (inclusive).
	LoopTripMin, LoopTripMax int
	// PatternLenMin/Max bound pattern lengths (inclusive, <= 32).
	PatternLenMin, PatternLenMax int
	// NoisyEps is the flip probability of noisy branches.
	NoisyEps float64
	// RandomP is the taken probability of random branches (near 0.5).
	RandomP float64
}

// normalized weights in class order.
func (m BranchMix) weights() [numClasses]float64 {
	return [numClasses]float64{m.Biased, m.Loop, m.Pattern, m.Correlated, m.Noisy, m.Random}
}

// makeBranch samples one static branch from the mix.
func (m BranchMix) makeBranch(choice *rng.WeightedChoice, r *rng.RNG) branchGen {
	cls := BranchClass(choice.Sample(r))
	gen := branchGen{class: cls}
	switch cls {
	case ClassBiased:
		p := m.BiasedP
		if p <= 0 {
			p = 0.98
		}
		if r.Bool(0.5) {
			p = 1 - p
		}
		gen.p = p
	case ClassLoop:
		lo, hi := m.LoopTripMin, m.LoopTripMax
		if lo <= 1 {
			lo = 4
		}
		if hi < lo {
			hi = lo
		}
		gen.p = 1 / float64(r.Range(lo, hi))
	case ClassPattern:
		// A deterministic function of 3 recent global outcomes: learnable
		// by the gshare component (slightly slower to warm than
		// ClassCorrelated's 2-bit function). A fixed repeating local
		// pattern would be invisible to a global-history predictor.
		for bits.OnesCount32(gen.mask) < 3 {
			gen.mask |= 1 << uint(r.Intn(7))
		}
		gen.invert = r.Bool(0.5)
	case ClassCorrelated:
		// Use 2-3 bits of recent history within gshare's reach.
		for bits.OnesCount32(gen.mask) < 2 {
			gen.mask |= 1 << uint(r.Intn(6))
		}
		gen.invert = r.Bool(0.5)
	case ClassNoisy:
		// A strongly biased branch flipped with probability epsilon: the
		// predictor learns the bias, leaving a mispredict rate of ~eps.
		eps := m.NoisyEps
		if eps <= 0 {
			eps = 0.10
		}
		p := 0.97
		if r.Bool(0.5) {
			p = 1 - p
		}
		gen.p, gen.eps = p, eps
	case ClassRandom:
		p := m.RandomP
		if p <= 0 {
			p = 0.5
		}
		gen.p = p
	default:
		panic("workload: unknown branch class")
	}
	gen.rng0 = *r.Fork()
	return gen
}
