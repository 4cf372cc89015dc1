package workload

import "testing"

// TestWalkerNextZeroAllocs pins goodpath stream generation to zero heap
// allocations in steady state (the call stack clamp must slide in place,
// never re-slice off the front of its backing array).
func TestWalkerNextZeroAllocs(t *testing.T) {
	spec, err := NewBenchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalker(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		w.Next()
	}
	allocs := testing.AllocsPerRun(100_000, func() {
		w.Next()
	})
	if allocs != 0 {
		t.Fatalf("Walker.Next allocates %.4f times per instruction, want 0", allocs)
	}
}

// TestWrongPathNextZeroAllocs pins badpath generation likewise.
func TestWrongPathNextZeroAllocs(t *testing.T) {
	spec, err := NewBenchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalker(spec)
	if err != nil {
		t.Fatal(err)
	}
	wp := NewWrongPath(w)
	wp.Redirect(0x4000)
	allocs := testing.AllocsPerRun(50_000, func() {
		ins := wp.Next()
		if ins.Kind == KindBranch {
			wp.ResolveBranch(&ins, true)
		}
	})
	if allocs != 0 {
		t.Fatalf("WrongPath.Next allocates %.4f times per instruction, want 0", allocs)
	}
}

// newWalkerAllocs is what NewWalker of a compiled registry spec
// allocates: the walker, its call stack, its pattern offsets, its branch
// states and its two RNG streams.
const newWalkerAllocs = 6

// TestNewWalkerRegistryAllocs pins the cost of starting a walk of a
// registry model once its image is compiled: the same fixed number of
// allocations for every model, however large its program.
func TestNewWalkerRegistryAllocs(t *testing.T) {
	for _, name := range BenchmarkNames {
		spec := MustBenchmark(name)
		if _, err := NewWalker(spec); err != nil { // compiles the image
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := NewWalker(spec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != newWalkerAllocs {
			t.Errorf("NewWalker(%s) allocates %.0f times, want %d", name, allocs, newWalkerAllocs)
		}
	}
}
