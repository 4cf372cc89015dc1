package workload_test

import (
	"testing"

	"paco/internal/scenario"
	"paco/internal/workload"
)

// TestRegistryImagesBounded builds walkers from 1,000 fuzzed scenarios
// and from every registry model under a seed override: none of them may
// walk a shared image, and the process may retain no image beyond one
// per registry entry.
func TestRegistryImagesBounded(t *testing.T) {
	var specs []*workload.Spec
	scs, err := scenario.FuzzSpec{Seed: 14, Count: 1000}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		spec, err := sc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, name := range workload.BenchmarkNames {
		spec := workload.MustBenchmark(name)
		spec.Seed++
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		w, err := workload.NewWalker(spec)
		if err != nil {
			t.Fatal(err)
		}
		if w.WalksRegistryImage() {
			t.Fatalf("%s (seed %#x) walks a registry image", spec.Name, spec.Seed)
		}
	}
	if registered, compiled := workload.CompiledRegistryImages(); compiled > registered {
		t.Fatalf("%d images retained for %d registry entries", compiled, registered)
	}
}
