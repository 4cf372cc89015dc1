// Package campaign is the simulation-campaign engine: it shards
// independent simulation jobs across a bounded worker pool and collects
// structured, serializable results.
//
// A campaign is a slice of Jobs. Each Job names a workload (a bundled
// benchmark or a custom workload.Spec), a machine configuration, an
// optional deterministic seed override, and a Setup hook that constructs
// the run's estimators, gate, and probes on the worker goroutine — so
// every run gets fresh predictor state and no state is shared between
// concurrently executing jobs. A Runner executes the jobs with per-job
// panic recovery, context cancellation, and progress callbacks, and
// returns one Result per job, in job order.
//
// Every simulation in this repository is deterministic given its spec
// seed, and jobs share no mutable state, so a campaign's results are
// identical regardless of worker count: results[i] depends only on
// jobs[i]. Aggregation helpers (Merge, Summarize) likewise consume
// results in job order, which makes whole reports byte-identical at -j 1
// and -j 8. Results serialize to JSON and CSV and merge across shards,
// so a campaign can be split across processes or machines and the pieces
// recombined.
//
// The experiments package submits every per-benchmark measurement of the
// paper's evaluation through this engine; cmd/paco-campaign exposes it
// directly for arbitrary configuration sweeps.
package campaign

import (
	"context"

	"paco/internal/core"
	"paco/internal/cpu"
	"paco/internal/workload"
)

// Job describes one independent simulation run.
type Job struct {
	// ID labels the job in results and logs. IDs should be unique within
	// a campaign (Merge orders ties by ID).
	ID string

	// Benchmark names a bundled benchmark model; it is resolved with
	// workload.NewBenchmark when Spec is nil.
	Benchmark string

	// Spec is an explicit workload; the engine runs a private copy, so a
	// spec may be shared between jobs.
	Spec *workload.Spec

	// Instructions and Warmup size the measured window and the discarded
	// warmup that precedes it.
	Instructions, Warmup uint64

	// Machine overrides the simulated core configuration (nil selects
	// cpu.DefaultConfig()).
	Machine *cpu.Config

	// Seed, when nonzero, overrides the workload's seed — runs with equal
	// seeds produce identical instruction streams.
	Seed uint64

	// Setup, when non-nil, is called once on the worker goroutine before
	// the run to construct per-run hooks (estimators, gate, probes).
	Setup Setup

	// Exec, when non-nil, replaces the standard single-thread simulation
	// entirely: the engine calls it with the campaign's context (with
	// panic recovery) and adopts the returned Result. Used for runs the declarative fields cannot
	// express, e.g. multi-thread SMT measurements.
	Exec func(ctx context.Context) (*Result, error)
}

// Setup constructs a job's per-run hooks. It runs on the worker
// goroutine, once per job, so estimator state is never shared between
// concurrent runs.
type Setup func() Hooks

// Hooks attaches estimators and measurement probes to one run.
type Hooks struct {
	// Estimators are attached to the measured thread. PaCo estimators are
	// refreshed once at the warmup/measurement boundary (standing in for
	// the paper's multi-hundred-million instruction fast-forward).
	Estimators []core.Estimator

	// Gate, when non-nil, is consulted every cycle; true suppresses fetch
	// (pipeline gating).
	Gate func() bool

	// Attached is called after the thread is added, before warmup — the
	// place to capture per-thread handles such as the workload walker.
	Attached func(c *cpu.Core, tid int)

	// Probe is installed for the measured window only (after warmup
	// statistics are discarded). It observes every fetched instruction
	// with the goodpath oracle's verdict.
	Probe func(tid int, goodpath bool)

	// Collect runs after the measured window with the final core state;
	// it records custom measurements into the job's Result (typically via
	// Result.Extra).
	Collect func(res *Result, c *cpu.Core, tid int)
}

// resolveSpec materializes the job's effective workload: the named
// benchmark or a private copy of its spec, with the seed override
// applied. Runs with equal resolved specs produce identical streams.
func resolveSpec(job *Job) (*workload.Spec, error) {
	spec := job.Spec
	if spec == nil {
		s, err := workload.NewBenchmark(job.Benchmark)
		if err != nil {
			return nil, err
		}
		spec = s
	} else {
		// Private copy: specs may be shared between jobs.
		spec = spec.Clone()
	}
	if job.Seed != 0 {
		spec.Seed = job.Seed
	}
	return spec, nil
}

// finishRun runs one job on a private walker-fed core — attach the
// thread, warm up, measure, collect. The lane engine uses it for jobs
// whose Attached hook needs a walker no other lane advances.
func finishRun(c *cpu.Core, spec *workload.Spec, job *Job, hooks Hooks) (*Result, error) {
	tid, err := c.AddThread(spec, hooks.Estimators)
	if err != nil {
		return nil, err
	}
	if hooks.Attached != nil {
		hooks.Attached(c, tid)
	}
	if hooks.Gate != nil {
		c.SetGate(hooks.Gate)
	}
	c.Run(job.Warmup, 0)
	// The warmup stands in for the paper's fast-forward, during which
	// PaCo's log circuit would have run thousands of times; force one
	// logarithmization at the boundary so measurement never starts from
	// the cold-start profile.
	refreshPaCos(hooks.Estimators)
	c.ResetStats()
	if hooks.Probe != nil {
		c.SetProbe(hooks.Probe)
	}
	c.Run(job.Instructions, 0)
	return collectResult(c, spec, tid, hooks), nil
}

// refreshPaCos forces the warmup-boundary logarithmization on every
// PaCo estimator (see finishRun).
func refreshPaCos(ests []core.Estimator) {
	for _, e := range ests {
		if p, ok := e.(*core.PaCo); ok {
			p.Refresh()
		}
	}
}

// collectResult assembles the measured window's Result and runs the
// Collect hook. On the batched path c may be a core shared by several
// passive cells; Collect hooks that inspect the core (rather than
// captured per-cell state) see the shared core.
func collectResult(c *cpu.Core, spec *workload.Spec, tid int, hooks Hooks) *Result {
	res := &Result{
		Benchmark: spec.Name,
		Seed:      spec.Seed,
		Cycles:    c.Stats().Cycles,
		IPC:       c.IPC(tid),
		Stats:     c.ThreadStats(tid),
	}
	if hooks.Collect != nil {
		hooks.Collect(res, c, tid)
	}
	return res
}
