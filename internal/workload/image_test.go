package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// imageBytes is img's size computed from its slice lengths.
func imageBytes(img *image) int {
	n := int(unsafe.Sizeof(*img))
	for _, r := range img.regions {
		n += int(unsafe.Sizeof(r)) + len(r)*int(unsafe.Sizeof(block{}))
	}
	n += len(img.entries) * int(unsafe.Sizeof(int(0)))
	n += len(img.instrs) * int(unsafe.Sizeof(staticInstr{}))
	n += len(img.targets) * int(unsafe.Sizeof(int32(0)))
	n += len(img.mems) * int(unsafe.Sizeof(memPattern{}))
	n += len(img.branches) * int(unsafe.Sizeof(branchGen{}))
	return n
}

// registryImageBudget bounds what the twelve models' images may hold
// together: they live for the life of the process, so their footprint
// is part of every run's heap.
const registryImageBudget = 5 << 20

// TestRegistryImageSize keeps the registry's images compact.
func TestRegistryImageSize(t *testing.T) {
	total := 0
	for _, name := range BenchmarkNames {
		img := registryImage(MustBenchmark(name))
		blocks := 0
		for _, r := range img.regions {
			blocks += len(r)
		}
		n := imageBytes(img)
		total += n
		t.Logf("%-9s %7d bytes: %6d blocks, %6d instructions, %5d sequential patterns, %4d branches",
			name, n, blocks, len(img.instrs), len(img.mems), len(img.branches))
	}
	t.Logf("registry total %d bytes", total)
	if total > registryImageBudget {
		t.Fatalf("registry images hold %d bytes, budget %d", total, registryImageBudget)
	}
}

// privateWalker walks a freshly compiled image of spec, never the
// registry's.
func privateWalker(spec *Spec) *Walker {
	return newWalker(spec, compile(spec))
}

// TestSharedImageIsolation steps two walkers of one registry spec
// interleaved, then on two goroutines (run it under -race). Each must
// produce exactly the stream of a walker on a private image, and the
// two walkers' state must share nothing but the image.
func TestSharedImageIsolation(t *testing.T) {
	const n = 50_000
	for _, name := range []string{"gcc", "gap", "perlbmk"} {
		ref := privateWalker(MustBenchmark(name))
		want := make([]Instruction, n)
		for i := range want {
			want[i] = ref.Next()
		}
		a, _ := NewWalker(MustBenchmark(name))
		b, _ := NewWalker(MustBenchmark(name))
		if a.img != b.img || a.img != registryImage(specs[name]) {
			t.Fatalf("%s: walkers of a registry spec do not share its image", name)
		}
		if ref.img == a.img {
			t.Fatalf("%s: private walker on the shared image", name)
		}
		// Interleaved with uneven steps, so the walkers sit at different
		// positions of the same image.
		ia, ib := 0, 0
		for ia < n || ib < n {
			for k := 0; k < 3 && ia < n; k++ {
				if got := a.Next(); got != want[ia] {
					t.Fatalf("%s: walker a diverged at %d: %+v vs %+v", name, ia, got, want[ia])
				}
				ia++
			}
			if ib < n {
				if got := b.Next(); got != want[ib] {
					t.Fatalf("%s: walker b diverged at %d: %+v vs %+v", name, ib, got, want[ib])
				}
				ib++
			}
		}
		if !reflect.DeepEqual(a.BranchStats(), ref.BranchStats()) || !reflect.DeepEqual(b.BranchStats(), ref.BranchStats()) {
			t.Fatalf("%s: branch statistics differ from the private walker's", name)
		}
		// region is a view of img.regions; everything else is the walker's.
		for _, s := range sharedRefs("walker", reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()) {
			if s != "walker.img: shared ptr" && s != "walker.region: shared slice backing array" {
				t.Errorf("%s: walkers share mutable state: %s", name, s)
			}
		}

		var wg sync.WaitGroup
		errs := make([]int, 2)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w, _ := NewWalker(MustBenchmark(name))
				errs[g] = -1
				for i := range want {
					if w.Next() != want[i] {
						errs[g] = i
						return
					}
				}
			}()
		}
		wg.Wait()
		for g, at := range errs {
			if at >= 0 {
				t.Fatalf("%s: goroutine %d diverged at %d", name, g, at)
			}
		}
	}
}

var firstUseRuns int

// TestRegistryImageConcurrentFirstUse starts walks of a not yet
// compiled registry entry from several goroutines at once (run it under
// -race): the image is compiled once and every walker shares it.
func TestRegistryImageConcurrentFirstUse(t *testing.T) {
	firstUseRuns++ // a fresh registry entry for every -count run
	s := testSpec()
	s.Name = fmt.Sprintf("concurrent-first-use-%d", firstUseRuns)
	if err := Register(s); err != nil {
		t.Fatal(err)
	}
	walkers := make([]*Walker, 4)
	var wg sync.WaitGroup
	for i := range walkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			walkers[i], _ = NewWalker(s.Clone())
		}()
	}
	wg.Wait()
	for _, w := range walkers {
		if w.img != walkers[0].img || w.img != images[s.Name].img {
			t.Fatal("concurrent first use compiled more than one image")
		}
	}
}

// TestNewWalkerDegenerateSpecs covers valid specs at the edges of
// compile: a phase of loop branches only (no diamond class to sample)
// and a working set just past 2^63 bytes (its power-of-two rounding
// overflows). NaN knobs are not probabilities and fail Validate.
func TestNewWalkerDegenerateSpecs(t *testing.T) {
	loopOnly := testSpec()
	loopOnly.Phases[0].Mix = BranchMix{Loop: 1, LoopTripMin: 4, LoopTripMax: 9}
	huge := testSpec()
	huge.WorkingSetKB = 1<<53 + 1
	for name, spec := range map[string]*Spec{"loop-only": loopOnly, "huge-working-set": huge} {
		w, err := NewWalker(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 10_000; i++ {
			w.Next()
		}
	}
	for name, mutate := range map[string]func(*Spec){
		"NaN fraction": func(s *Spec) { s.DepGeoP = math.NaN() },
		"NaN weight":   func(s *Spec) { s.Phases[0].Mix.Biased = math.NaN() },
	} {
		s := testSpec()
		mutate(s)
		if s.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// fuzzSpec reshapes a copy of base from the fuzzer's bytes: seed,
// structure, fractions, storms and one to three phases with arbitrary
// class weights. Sizes are drawn from small ranges so one iteration
// compiles in milliseconds; every other value is whatever the bytes say,
// and Validate decides.
func fuzzSpec(base *Spec, seed uint64, knobs []byte) *Spec {
	next := func() byte {
		if len(knobs) == 0 {
			return 0
		}
		b := knobs[0]
		knobs = knobs[1:]
		return b
	}
	frac := func() float64 { return float64(next()) / 250 } // up to 1.02: Validate rejects > 1
	s := base.Clone()
	s.Seed = seed
	s.BlocksPerPhase = int(next())*8 - 16
	s.AvgBlockLen = int(next()%24) - 1
	var ws [8]byte
	for i := range ws {
		ws[i] = next()
	}
	s.WorkingSetKB = int(binary.LittleEndian.Uint64(ws[:]) >> (next() % 64))
	s.LoadFrac, s.StoreFrac, s.LongLatFrac = frac(), frac(), frac()
	s.DepGeoP = 0.05 + 0.95*frac()
	s.RandomAddrFrac, s.CallFrac, s.IndirectFrac = frac(), frac(), frac()
	s.IndirectTargets = int(next()%40) - 2
	s.StormEnter, s.StormExit, s.StormFlip = frac()/10, frac(), frac()
	s.Phases = make([]Phase, 1+next()%3)
	for i := range s.Phases {
		s.Phases[i] = Phase{
			Instructions: uint64(next()) * 100,
			Mix: BranchMix{
				Biased: frac(), Loop: frac(), Pattern: frac(),
				Correlated: frac(), Noisy: frac(), Random: frac(),
				BiasedP: frac(), NoisyEps: frac(), RandomP: frac(),
				LoopTripMin: int(next()) - 8, LoopTripMax: int(next()) - 8,
			},
		}
	}
	return s
}

// FuzzNewWalker checks that every spec Validate accepts compiles and
// walks without panicking, and that a registry-equal spec (no knob
// bytes) walks its shared image exactly as a private image.
func FuzzNewWalker(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte(nil))
	f.Add(uint8(2), uint64(7), []byte(nil))
	// Knob bytes in fuzzSpec's order: blocks, block length, working set
	// (8 bytes and a shift), load, store, long-latency, dependence,
	// random-address, call and indirect fractions, indirect targets,
	// storm enter/exit/flip, phase count; then per phase: instructions,
	// six class weights, BiasedP, NoisyEps, RandomP, trip min and max.
	f.Add(uint8(4), uint64(1), []byte{
		0x40, 7, 0, 1, 0, 0, 0, 0, 0, 0, 0, 60, 25, 25, 55, 38, 10, 3, 5, 0, 0, 0, 0,
		255, 100, 30, 30, 20, 40, 5, 246, 25, 125, 20, 56,
	})
	// Two phases, the first of loop branches only; storms; a working set
	// of 2^53+1 KiB.
	f.Add(uint8(5), uint64(9), []byte{
		0x20, 5, 1, 0, 0, 0, 0, 0, 0x20, 0, 0, 60, 25, 25, 55, 200, 20, 10, 12, 10, 12, 100, 1,
		50, 0, 250, 0, 0, 0, 0, 0, 0, 0, 10, 30,
		80, 250, 0, 0, 0, 250, 0, 240, 30, 125, 0, 0,
	})
	f.Fuzz(func(t *testing.T, bench uint8, seed uint64, knobs []byte) {
		spec := MustBenchmark(BenchmarkNames[int(bench)%len(BenchmarkNames)])
		if len(knobs) == 0 {
			shared, err := NewWalker(spec)
			if err != nil {
				t.Fatal(err)
			}
			private := privateWalker(spec)
			for i := 0; i < 10_000; i++ {
				if a, b := shared.Next(), private.Next(); a != b {
					t.Fatalf("%s: shared image diverged at %d: %+v vs %+v", spec.Name, i, a, b)
				}
			}
			return
		}
		spec = fuzzSpec(spec, seed, knobs)
		if spec.Validate() != nil {
			return
		}
		w, err := NewWalker(spec)
		if err != nil {
			t.Fatal(err)
		}
		if w.img == registryImage(specs[spec.Name]) && !reflect.DeepEqual(spec, specs[spec.Name]) {
			t.Fatal("a reshaped spec walks the registry image")
		}
		for i := 0; i < 2_000; i++ {
			w.Next()
		}
	})
}
