package workload

import "paco/internal/rng"

// maxCallDepth bounds the walker's return-address stack; deeper call
// chains discard their oldest frames (matching a clamped hardware RAS).
const maxCallDepth = 64

// Walker produces the goodpath dynamic instruction stream of a benchmark by
// walking its control-flow graph. It is only advanced for goodpath fetches;
// when the simulator recovers from a misprediction it resumes exactly where
// the walker stopped.
type Walker struct {
	spec   *Spec
	img    *image // shared and read-only; the rest of the walker is its own
	r      *rng.RNG
	ctx    globalCtx
	wsMask uint64

	off      []uint32      // current offset of each sequential memory pattern
	branches []branchState // each static branch's stream and counters

	phase         int
	phaseCount    uint64
	region        []block
	blockIdx      int
	instrIdx      int
	callStack     []int
	produced      uint64
	kindCounts    [numKinds]uint64
	phaseSwitches uint64
}

// NewWalker returns a walker positioned at the entry of the benchmark's
// program. A spec equal to its registry entry walks that entry's shared
// image, compiled once per process; any other spec compiles a private
// one. Either way the stream is the same.
func NewWalker(spec *Spec) (*Walker, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	img := registryImage(spec)
	if img == nil {
		img = compile(spec)
	}
	return newWalker(spec, img), nil
}

// newWalker starts a walk of img, which must be spec's compiled image.
func newWalker(spec *Spec, img *image) *Walker {
	r := img.afterBuild
	w := &Walker{
		spec:      spec,
		img:       img,
		r:         r.Fork(),
		wsMask:    nextPow2u(uint64(spec.WorkingSetKB)*1024) - 1,
		off:       make([]uint32, len(img.mems)),
		branches:  make([]branchState, len(img.branches)),
		callStack: make([]int, 0, maxCallDepth),
	}
	for i := range w.branches {
		w.branches[i].rng = img.branches[i].rng0
	}
	w.ctx = globalCtx{
		stormEnter: spec.StormEnter,
		stormExit:  spec.StormExit,
		stormFlip:  spec.StormFlip,
		stormRNG:   r.Fork(),
	}
	w.region = img.regions[0]
	w.blockIdx = img.entries[0]
	return w
}

// Spec returns the walker's benchmark spec.
func (w *Walker) Spec() *Spec { return w.spec }

// Produced returns how many goodpath instructions have been generated.
func (w *Walker) Produced() uint64 { return w.produced }

// Phase returns the index of the currently active phase.
func (w *Walker) Phase() int { return w.phase }

// PhaseSwitches returns how many phase transitions have occurred.
func (w *Walker) PhaseSwitches() uint64 { return w.phaseSwitches }

// KindCount returns how many instructions of kind k have been produced.
func (w *Walker) KindCount(k Kind) uint64 { return w.kindCounts[k] }

// Next produces the next goodpath instruction.
func (w *Walker) Next() Instruction {
	w.maybeSwitchPhase()
	blk := &w.region[w.blockIdx]
	// Fall through terminator-less blocks (segment stitching).
	for w.instrIdx >= int(blk.n) && blk.kind == kindFallthrough {
		w.blockIdx = int(blk.fall)
		w.instrIdx = 0
		blk = &w.region[w.blockIdx]
	}
	var ins Instruction
	if w.instrIdx < int(blk.n) {
		si := &w.img.instrs[int(blk.first)+w.instrIdx]
		ins = Instruction{
			PC:       blk.pc + uint64(w.instrIdx)*instrBytes,
			Kind:     si.kind,
			Lat:      uint64(si.lat),
			Dep1:     w.depDist(),
			StaticID: -1,
		}
		if si.flags&instrDep2 != 0 {
			ins.Dep2 = w.depDist()
		}
		if si.flags&instrRandAddr != 0 {
			ins.Addr = dataBase + (w.r.Uint64() & w.wsMask)
		} else if si.mem != 0 {
			ins.Addr = w.seqAddr(si.mem - 1)
		}
		ins.NextPC = ins.PC + instrBytes
		w.instrIdx++
	} else {
		ins = w.terminatorInstr(blk)
	}
	w.produced++
	w.phaseCount++
	w.kindCounts[ins.Kind]++
	return ins
}

// seqAddr returns sequential pattern i's next address and advances it.
func (w *Walker) seqAddr(i uint32) uint64 {
	m := &w.img.mems[i]
	off := w.off[i]
	if next := off + m.stride; next < m.span {
		w.off[i] = next
	} else {
		w.off[i] = 0
	}
	return m.base + uint64(off)
}

func (w *Walker) depP() float64 {
	p := w.spec.DepGeoP
	if p <= 0 || p > 1 {
		return 0.5
	}
	return p
}

// depDist samples one dependence distance: a third of values are
// independent (zero), the rest geometric — wide enough for realistic ILP.
// The independence draw compares an inlined Float64 against the constant
// directly (exactly what Bool does for an in-range p) — this runs once or
// twice per simulated instruction.
func (w *Walker) depDist() int {
	if w.r.Float64() < 0.3 {
		return 0
	}
	return 1 + w.r.Geometric(w.depP())
}

func (w *Walker) terminatorInstr(blk *block) Instruction {
	termPC := blk.pc + uint64(blk.n)*instrBytes
	ins := Instruction{
		PC:       termPC,
		Kind:     blk.kind,
		Lat:      1,
		Dep1:     w.depDist(),
		StaticID: -1,
	}
	switch blk.kind {
	case KindBranch:
		taken := w.branches[blk.branch].next(&w.img.branches[blk.branch], &w.ctx)
		ins.Taken = taken
		ins.StaticID = int(blk.branch)
		if taken {
			w.blockIdx = int(blk.taken)
			ins.AltPC = w.region[blk.fall].pc // mispredicted: falls through
		} else {
			w.blockIdx = int(blk.fall)
			ins.AltPC = w.region[blk.taken].pc // mispredicted: takes the branch
		}
		ins.NextPC = w.region[w.blockIdx].pc
	case KindJump:
		w.blockIdx = int(blk.taken)
		ins.NextPC = w.region[w.blockIdx].pc
	case KindCall:
		// Clamp by sliding in place rather than re-slicing off the front:
		// the backing array keeps its full capacity, so pushes never
		// reallocate in steady state. Contents match the seed's behaviour
		// (the deepest maxCallDepth return sites are retained).
		if len(w.callStack) >= maxCallDepth {
			copy(w.callStack, w.callStack[len(w.callStack)-maxCallDepth+1:])
			w.callStack = w.callStack[:maxCallDepth-1]
		}
		w.callStack = append(w.callStack, int(blk.fall))
		w.blockIdx = int(blk.taken)
		ins.NextPC = w.region[w.blockIdx].pc
	case KindReturn:
		if n := len(w.callStack); n > 0 {
			w.blockIdx = w.callStack[n-1]
			w.callStack = w.callStack[:n-1]
		} else {
			// Unbalanced return (clamped stack or phase switch): restart
			// at the region's driver loop.
			w.blockIdx = w.img.entries[w.phase]
		}
		ins.NextPC = w.region[w.blockIdx].pc
	case KindIndirect:
		w.blockIdx = int(w.img.targets[int(blk.taken)+w.r.Intn(int(blk.fall))])
		ins.NextPC = w.region[w.blockIdx].pc
	default:
		panic("workload: bad terminator kind")
	}
	w.instrIdx = 0
	return ins
}

func (w *Walker) maybeSwitchPhase() {
	ph := &w.spec.Phases[w.phase]
	if w.phaseCount < ph.Instructions {
		return
	}
	w.phaseCount = 0
	w.phase = (w.phase + 1) % len(w.spec.Phases)
	w.region = w.img.regions[w.phase]
	w.blockIdx = w.img.entries[w.phase]
	w.instrIdx = 0
	w.callStack = w.callStack[:0]
	w.phaseSwitches++
}

// BranchStats summarizes one static branch for diagnostics.
type BranchStats struct {
	ID       int
	Class    BranchClass
	Executed uint64
	Taken    uint64
}

// BranchStats returns per-static-branch execution statistics.
func (w *Walker) BranchStats() []BranchStats {
	out := make([]BranchStats, len(w.branches))
	for i, st := range w.branches {
		out[i] = BranchStats{
			ID:       i,
			Class:    w.img.branches[i].class,
			Executed: st.executed,
			Taken:    st.taken,
		}
	}
	return out
}

// WrongPath generates plausible badpath instructions after a misprediction:
// random code addresses within the current program region (so badpath fetch
// exercises the I-cache and BTB realistically) and data addresses spread
// over a region four times the working set (so badpath fills evict goodpath
// lines — the pollution the paper's gating experiments observe).
type WrongPath struct {
	w  *Walker
	r  *rng.RNG
	pc uint64
}

// NewWrongPath returns a badpath generator bound to the walker's program.
func NewWrongPath(w *Walker) *WrongPath {
	return &WrongPath{w: w, r: rng.NewStream(w.spec.Seed, 0xbad)}
}

// Redirect points the generator at a new badpath PC (the mispredicted
// target).
func (wp *WrongPath) Redirect(pc uint64) { wp.pc = pc }

// BadpathMispredictRate is the rate at which badpath conditional branches
// disagree with the live prediction. Badpath instruction content is
// synthetic fiction; making it behave like ordinary code (rather than
// mispredicting half the time) keeps deep wrong-path shadows realistic.
const BadpathMispredictRate = 0.10

// ResolveBranch fixes up a badpath conditional branch produced by Next
// once the pipeline has predicted its direction: the actual outcome agrees
// with the prediction except at BadpathMispredictRate, and the generator's
// fetch position follows the actual path.
func (wp *WrongPath) ResolveBranch(ins *Instruction, predictedTaken bool) {
	taken := predictedTaken
	if wp.r.Bool(BadpathMispredictRate) {
		taken = !taken
	}
	target := ins.AltPC // candidate taken target chosen at generation
	ins.Taken = taken
	if taken {
		ins.NextPC = target
		ins.AltPC = ins.PC + instrBytes
	} else {
		ins.NextPC = ins.PC + instrBytes
		ins.AltPC = target
	}
	wp.pc = ins.NextPC
}

// Next produces the next badpath instruction at the generator's current PC.
func (wp *WrongPath) Next() Instruction {
	ins := Instruction{PC: wp.pc, Lat: 1, Dep1: 1 + wp.r.Geometric(0.5), StaticID: -1}
	x := wp.r.Float64()
	spec := wp.w.spec
	switch {
	case x < spec.LoadFrac:
		ins.Kind = KindLoad
		ins.Lat = 3
		ins.Addr = dataBase + (wp.r.Uint64() & (4*(wp.w.wsMask+1) - 1))
	case x < spec.LoadFrac+spec.StoreFrac:
		ins.Kind = KindStore
		ins.Addr = dataBase + (wp.r.Uint64() & (4*(wp.w.wsMask+1) - 1))
	case x < spec.LoadFrac+spec.StoreFrac+0.15:
		// Badpath control flow: a conditional branch whose outcome is
		// decided against the live prediction by ResolveBranch — badpath
		// code behaves statistically like code, mispredicting at a
		// modest fixed rate rather than 50%. Taken targets are short
		// forward jumps: wrong paths run nearby, mostly I-cache-warm
		// code, so the shadow keeps fetching (and keeps generating
		// instances) until the mispredict resolves.
		ins.Kind = KindBranch
		ins.AltPC = ins.PC + instrBytes*uint64(2+wp.r.Intn(48))
		return ins
	default:
		ins.Kind = KindALU
	}
	ins.NextPC = ins.PC + instrBytes
	wp.pc = ins.NextPC
	return ins
}
