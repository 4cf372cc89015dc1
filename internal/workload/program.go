package workload

import (
	"fmt"
	"math/bits"
	"reflect"
	"sync"

	"paco/internal/rng"
)

// Phase is one phase of a benchmark: a dynamic instruction budget and the
// branch population active during it. Each phase owns a distinct region of
// the synthetic program (distinct static branches), so phase changes shift
// the per-MDC-bucket mispredict rates the way the paper describes for gcc.
type Phase struct {
	// Instructions is the dynamic instruction count of the phase; phases
	// cycle when the schedule is exhausted.
	Instructions uint64
	// Mix is the conditional-branch population of the phase.
	Mix BranchMix
}

// Spec fully describes one synthetic benchmark.
type Spec struct {
	// Name labels the benchmark in tables (matches the paper's names).
	Name string
	// Seed makes the benchmark deterministic; runs with equal seeds
	// produce identical streams.
	Seed uint64

	// Phases is the phase schedule (at least one).
	Phases []Phase

	// BlocksPerPhase sets the approximate number of basic blocks in each
	// phase region (controls instruction footprint / L1I behaviour).
	BlocksPerPhase int
	// AvgBlockLen is the mean non-terminator instructions per block.
	AvgBlockLen int

	// LoadFrac and StoreFrac are the per-instruction probabilities of
	// loads and stores inside a block (rest are ALU).
	LoadFrac, StoreFrac float64
	// LongLatFrac is the fraction of ALU instructions with 3-cycle
	// latency (multiplies etc.).
	LongLatFrac float64
	// DepGeoP parameterizes dependence distances: distance = 1 +
	// Geometric(DepGeoP). Larger values mean shorter dependences (less
	// ILP).
	DepGeoP float64

	// WorkingSetKB is the data working set; load/store addresses fall in
	// it. RandomAddrFrac of memory instructions use uniform random
	// addresses (cache-hostile); the rest use small strides
	// (cache-friendly).
	WorkingSetKB   int
	RandomAddrFrac float64

	// JumpFrac is unused filler-jump weight (kept for spec stability);
	// CallFrac and IndirectFrac set the per-segment probabilities of call
	// segments (inside non-leaf functions) and indirect-dispatch
	// segments. ReturnFrac is implied by function structure.
	JumpFrac, CallFrac, ReturnFrac, IndirectFrac float64
	// IndirectTargets is how many distinct stubs each indirect dispatch
	// jumps among at random; BTB target mispredicts scale with it.
	IndirectTargets int

	// Storm parameters (gap-style clustered mispredicts); zero disables.
	StormEnter, StormExit, StormFlip float64
}

// Clone returns a deep copy of the spec: the returned value shares no
// mutable state with s, so callers may tweak it freely (the registry,
// the campaign engine, and the scenario compiler all rely on this).
// TestNewBenchmarkSharesNoMutableState walks the type with reflection so
// a future reference-typed field cannot silently alias.
func (s *Spec) Clone() *Spec {
	cp := *s
	cp.Phases = append([]Phase(nil), s.Phases...)
	return &cp
}

// Validate reports configuration errors.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec needs a name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload %s: at least one phase required", s.Name)
	}
	for i, ph := range s.Phases {
		if ph.Instructions == 0 {
			return fmt.Errorf("workload %s: phase %d has zero instructions", s.Name, i)
		}
		w := ph.Mix.weights()
		total := 0.0
		for _, x := range w {
			total += x
		}
		if !(total > 0) { // also rejects NaN
			return fmt.Errorf("workload %s: phase %d has no branch classes", s.Name, i)
		}
	}
	if s.BlocksPerPhase <= 0 {
		return fmt.Errorf("workload %s: BlocksPerPhase must be positive", s.Name)
	}
	if s.AvgBlockLen <= 0 {
		return fmt.Errorf("workload %s: AvgBlockLen must be positive", s.Name)
	}
	if s.WorkingSetKB <= 0 {
		return fmt.Errorf("workload %s: WorkingSetKB must be positive", s.Name)
	}
	// Probability-valued knobs must be probabilities: out-of-range values
	// would not crash (the samplers clamp), they would silently build a
	// degenerate workload — and scenario overrides feed this field-by-field.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LoadFrac", s.LoadFrac}, {"StoreFrac", s.StoreFrac},
		{"LongLatFrac", s.LongLatFrac}, {"DepGeoP", s.DepGeoP},
		{"RandomAddrFrac", s.RandomAddrFrac}, {"JumpFrac", s.JumpFrac},
		{"CallFrac", s.CallFrac}, {"ReturnFrac", s.ReturnFrac},
		{"IndirectFrac", s.IndirectFrac}, {"StormEnter", s.StormEnter},
		{"StormExit", s.StormExit}, {"StormFlip", s.StormFlip},
	} {
		if !(f.v >= 0 && f.v <= 1) { // also rejects NaN
			return fmt.Errorf("workload %s: %s=%g outside [0, 1]", s.Name, f.name, f.v)
		}
	}
	if s.IndirectTargets < 0 {
		return fmt.Errorf("workload %s: IndirectTargets must be non-negative, got %d", s.Name, s.IndirectTargets)
	}
	return nil
}

// kindFallthrough marks a block with no terminator instruction: execution
// flows directly into fall (used to stitch structured segments).
const kindFallthrough Kind = 0xFF

// block is one basic block of the synthetic program: its address, its
// body (a run of image.instrs) and its terminator. Block indices are
// local to the block's region.
type block struct {
	pc    uint64
	first uint32 // index of the first body instruction in image.instrs
	n     uint32 // body length
	kind  Kind   // terminator kind, or kindFallthrough
	// branch is the static conditional branch's ID (KindBranch).
	branch int32
	// taken is the conditional branch's taken target or the jump/call
	// target; for KindIndirect, the index of its first target in
	// image.targets.
	taken int32
	// fall is the conditional fall-through, the call's return site or a
	// fallthrough block's successor; for KindIndirect, the target count.
	fall int32
}

// staticInstr is one block-body instruction.
type staticInstr struct {
	// mem is 1 + the index of the instruction's sequential memory
	// pattern in image.mems, or 0.
	mem   uint32
	kind  Kind
	lat   uint8 // base execution latency in cycles
	flags uint8
}

// staticInstr flags.
const (
	instrDep2     = 1 << iota // reads a second operand
	instrRandAddr             // load/store at a uniformly random working-set address
)

// memPattern is one sequential memory instruction's address stream: it
// strides through [base, base+span) and wraps. The walker keeps the
// current offset (Walker.off).
type memPattern struct {
	base   uint64
	stride uint32
	span   uint32
}

const instrBytes = 4

// dataBase is where the data working set starts (disjoint from code).
const dataBase = 1 << 32

// image is one compiled program: one region of blocks per phase, each
// region a structured program — a driver loop that calls functions;
// functions are sequences of plain/loop/diamond/call/indirect segments
// ending in a return. This structure guarantees the walk keeps mixing
// over the whole region (a uniformly random digraph collapses into tiny
// deterministic orbits) and gives loop branches real loop semantics:
// consecutive executions with a trip-count exit, which is what the JRS
// miss distance counters key on.
//
// An image is immutable once compile returns, so any number of walkers
// on any goroutines may read it at once; everything a walk changes lives
// in the Walker. It is held in flat, index-linked slices (no per-block,
// per-instruction or per-pattern heap objects), which keeps the
// registry's images small enough to retain for the life of the process.
type image struct {
	regions  [][]block     // per phase
	entries  []int         // driver entry block per region
	instrs   []staticInstr // every block body, block after block
	targets  []int32       // indirect-dispatch targets
	mems     []memPattern  // sequential memory patterns
	branches []branchGen   // static conditional branches, by ID
	// afterBuild is the builder RNG after the build: walkers fork their own
	// streams from a copy of it.
	afterBuild rng.RNG
}

// registry images: each registered spec's image, compiled on first use.
type sharedImage struct {
	once sync.Once
	img  *image
}

// images holds one entry per registry name; it is written only where
// specs is (register, Register), so lookups need no lock.
var images = map[string]*sharedImage{}

// registryImage returns the shared image of spec's registry entry when
// spec equals that entry field for field, compiling it on first use;
// otherwise nil (the caller compiles a private image). Scoping sharing
// to the registry bounds what the process retains to one image per
// registered model, however many distinct specs pass through.
func registryImage(spec *Spec) *image {
	reg, ok := specs[spec.Name]
	if !ok || !reflect.DeepEqual(spec, reg) {
		return nil
	}
	e := images[spec.Name]
	e.once.Do(func() { e.img = compile(reg) })
	return e.img
}

// builder assembles one region.
type builder struct {
	spec   *Spec
	mix    *BranchMix
	choice *rng.WeightedChoice // diamond-class sampler (loop excluded); nil if no diamond class
	r      *rng.RNG
	blocks []block
	img    *image
	ws     uint64
}

// compile builds spec's program.
func compile(spec *Spec) *image {
	r := rng.NewStream(spec.Seed, 0x5eed)
	img := &image{}
	for phIdx := range spec.Phases {
		ph := &spec.Phases[phIdx]
		b := &builder{
			spec: spec,
			mix:  &ph.Mix,
			r:    r,
			img:  img,
			ws:   uint64(spec.WorkingSetKB) * 1024,
		}
		// Diamond branches sample from the non-loop classes; a phase of
		// loop branches only has no diamond segments to sample for.
		w := ph.Mix.weights()
		w[ClassLoop] = 0
		if w[ClassBiased]+w[ClassPattern]+w[ClassCorrelated]+w[ClassNoisy]+w[ClassRandom] > 0 {
			b.choice = rng.NewWeightedChoice(w[:])
		}
		entry := b.buildRegion(phIdx)
		img.regions = append(img.regions, b.blocks)
		img.entries = append(img.entries, entry)
	}
	img.afterBuild = *r
	return img
}

// segment kinds.
const (
	segPlain = iota
	segLoop
	segDiamond
	segCall
	segIndirect
)

// buildRegion lays out one phase region and returns its driver entry block.
func (b *builder) buildRegion(phIdx int) int {
	spec := b.spec
	funcCount := spec.BlocksPerPhase / 12
	if funcCount < 6 {
		funcCount = 6
	}
	leafCount := funcCount * 3 / 5
	entries := make([]int, funcCount)
	// Leaves first so call segments have callees.
	for f := 0; f < funcCount; f++ {
		entries[f] = b.buildFunction(f < leafCount, entries[:minInt(f, leafCount)])
	}
	// Driver: a long unrolled loop of calls covering every function, then
	// a jump back to the top.
	driverEntry := len(b.blocks)
	order := make([]int, 0, funcCount*2)
	order = append(order, entries...)
	for i := 0; i < funcCount; i++ {
		order = append(order, entries[b.r.Intn(funcCount)])
	}
	// Shuffle so call order differs between regions.
	for i := len(order) - 1; i > 0; i-- {
		j := b.r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, callee := range order {
		idx := b.newBlock(2)
		b.setTerm(idx, KindCall, callee, idx+1)
	}
	last := b.newBlock(1)
	b.setTerm(last, KindJump, driverEntry, 0)
	b.assignPCs(phIdx)
	return driverEntry
}

// buildFunction appends one function's blocks and returns its entry index.
func (b *builder) buildFunction(leaf bool, callees []int) int {
	entry := len(b.blocks)
	segs := b.r.Range(3, 9)
	for s := 0; s < segs; s++ {
		kind := b.segmentKind(leaf || len(callees) == 0)
		switch kind {
		case segPlain:
			idx := b.newBlock(0)
			b.setTerm(idx, kindFallthrough, 0, idx+1)
		case segLoop:
			// Loop bodies span several blocks, as real loops do; a
			// single-block body would put dozens of in-flight instances
			// of the same backedge in the window at once, all reading
			// the same stale MDC entry.
			header := b.newBlock(1)
			for k := b.r.Range(1, 5); k > 0; k-- {
				idx := b.newBlock(0)
				b.setTerm(idx, kindFallthrough, 0, idx+1)
			}
			last := b.newBlock(0)
			b.blocks[last].branch = b.makeLoopBranch()
			b.setTerm(header, kindFallthrough, 0, header+1)
			b.setTerm(last, KindBranch, header, last+1)
		case segDiamond:
			idx := b.newBlock(0)
			b.blocks[idx].branch = b.makeDiamondBranch()
			t := b.newBlock(0)
			e := b.newBlock(0)
			b.setTerm(idx, KindBranch, t, e)
			b.setTerm(t, KindJump, e+1, 0)
			b.setTerm(e, kindFallthrough, 0, e+1)
		case segCall:
			idx := b.newBlock(0)
			callee := callees[b.r.Intn(len(callees))]
			b.setTerm(idx, KindCall, callee, idx+1)
		case segIndirect:
			n := b.spec.IndirectTargets
			if n < 2 {
				n = 2
			}
			idx := b.newBlock(0)
			first := len(b.img.targets)
			for k := 0; k < n; k++ {
				stub := b.newBlock(0)
				b.img.targets = append(b.img.targets, int32(stub))
				b.setTerm(stub, KindJump, idx+n+1, 0)
			}
			b.setTerm(idx, KindIndirect, first, n)
		}
	}
	ret := b.newBlock(0)
	b.setTerm(ret, KindReturn, 0, 0)
	return entry
}

// segmentKind samples a segment type; leaves never contain calls.
func (b *builder) segmentKind(leaf bool) int {
	loopW := b.mix.Loop
	diamondW := b.mix.Biased + b.mix.Pattern + b.mix.Correlated + b.mix.Noisy + b.mix.Random
	callW := b.spec.CallFrac * 4
	if leaf {
		callW = 0
	}
	indW := b.spec.IndirectFrac * 4
	plainW := 0.25
	x := b.r.Float64() * (loopW + diamondW + callW + indW + plainW)
	switch {
	case x < loopW:
		return segLoop
	case x < loopW+diamondW:
		return segDiamond
	case x < loopW+diamondW+callW:
		return segCall
	case x < loopW+diamondW+callW+indW:
		return segIndirect
	default:
		return segPlain
	}
}

// setTerm sets block idx's terminator kind and its two targets (see
// block for what each means per kind).
func (b *builder) setTerm(idx int, kind Kind, taken, fall int) {
	blk := &b.blocks[idx]
	blk.kind, blk.taken, blk.fall = kind, int32(taken), int32(fall)
}

func (b *builder) makeLoopBranch() int32 {
	lo, hi := b.mix.LoopTripMin, b.mix.LoopTripMax
	if lo <= 1 {
		lo = 4
	}
	if hi < lo {
		hi = lo
	}
	gen := branchGen{class: ClassLoop, p: 1 / float64(b.r.Range(lo, hi))}
	gen.rng0 = *b.r.Fork()
	return b.addBranch(gen)
}

func (b *builder) makeDiamondBranch() int32 {
	return b.addBranch(b.mix.makeBranch(b.choice, b.r))
}

// addBranch appends a static branch and returns its ID.
func (b *builder) addBranch(gen branchGen) int32 {
	b.img.branches = append(b.img.branches, gen)
	return int32(len(b.img.branches) - 1)
}

// newBlock appends a block with a sampled body length (plus extraLen) and
// returns its index. Terminator is filled by the caller.
func (b *builder) newBlock(extraLen int) int {
	spec := b.spec
	blen := 1 + b.r.Geometric(1.0/float64(spec.AvgBlockLen)) + extraLen
	if blen > 4*spec.AvgBlockLen {
		blen = 4 * spec.AvgBlockLen
	}
	blk := block{first: uint32(len(b.img.instrs)), n: uint32(blen)}
	for j := 0; j < blen; j++ {
		si := staticInstr{lat: 1}
		x := b.r.Float64()
		switch {
		case x < spec.LoadFrac:
			si.kind = KindLoad
			si.lat = 3 // L1 hit pipeline latency
			b.addMem(&si)
		case x < spec.LoadFrac+spec.StoreFrac:
			si.kind = KindStore
			b.addMem(&si)
		default:
			si.kind = KindALU
			if b.r.Bool(spec.LongLatFrac) {
				si.lat = 3
			}
		}
		if b.r.Bool(0.4) {
			si.flags |= instrDep2
		}
		b.img.instrs = append(b.img.instrs, si)
	}
	b.blocks = append(b.blocks, blk)
	return len(b.blocks) - 1
}

// addMem gives a load or store its address stream: uniformly random over
// the working set, or a new sequential pattern.
func (b *builder) addMem(si *staticInstr) {
	if b.r.Bool(b.spec.RandomAddrFrac) {
		si.flags |= instrRandAddr
		return
	}
	wsMask := nextPow2u(b.ws) - 1
	m := memPattern{base: dataBase + (b.r.Uint64() & wsMask &^ 63)}
	m.stride = uint32(8 * (1 + b.r.Intn(8)))
	m.span = m.stride * uint32(16+b.r.Intn(240))
	b.img.mems = append(b.img.mems, m)
	si.mem = uint32(len(b.img.mems))
}

// assignPCs lays region blocks out contiguously in their own address
// window.
func (b *builder) assignPCs(phIdx int) {
	pc := uint64(0x1000_0000) + uint64(phIdx)<<24
	for i := range b.blocks {
		b.blocks[i].pc = pc
		n := int(b.blocks[i].n)
		if b.blocks[i].kind != kindFallthrough {
			n++ // terminator instruction
		}
		pc += uint64(n) * instrBytes
	}
}

// nextPow2u returns the least power of two >= v; above 1<<63 it
// returns 0, so nextPow2u(v)-1 is the all-ones mask instead of the
// doubling loop never ending.
func nextPow2u(v uint64) uint64 {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len64(v-1)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
