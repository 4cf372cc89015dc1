package main

import (
	"time"

	"paco/internal/core"
	"paco/internal/cpu"
	"paco/internal/workload"
)

// kernelScale sizes the kernel replays: instructions generated per
// benchmark model, cycles simulated per model, and cycles under stage
// timing.
type kernelScale struct {
	instrs, cycles, stageCycles uint64
}

func kernelSizes(o opts) kernelScale {
	if o.tiny {
		return kernelScale{instrs: 5_000, cycles: 5_000, stageCycles: 2_000}
	}
	return kernelScale{instrs: 200_000, cycles: 100_000, stageCycles: 40_000}
}

// batchLanes is the lane count of the batched-kernel replay: the
// server's default batch width.
const batchLanes = 8

// kernelLayers replays the repro workload's inputs, the paper's
// benchmark models, through the layers under the campaign runner one at
// a time: instruction generation alone (workload.Walker), through the
// shared-stream ring (workload.Tape), the single-cell kernel with one
// PaCo estimator (cpu.Core, untimed and then per stage via StepTimed),
// and the batched kernel (cpu.Batch) at the default width.
func kernelLayers(tr *tracer, o opts) (map[string]float64, error) {
	sz := kernelSizes(o)
	specs := workload.AllBenchmarks()
	var walkerD, tapeD, coreD, batchD time.Duration
	var coreCycles, batchCycles uint64
	var st cpu.StageTimes
	for _, spec := range specs {
		w, err := workload.NewWalker(spec.Clone())
		if err != nil {
			return nil, err
		}
		sp := tr.begin("kernel", "workload.walker", 0)
		start := time.Now()
		for i := uint64(0); i < sz.instrs; i++ {
			w.Next()
		}
		walkerD += time.Since(start)
		sp.end()

		tape, err := workload.NewTape(spec.Clone())
		if err != nil {
			return nil, err
		}
		cur := tape.NewCursor()
		sp = tr.begin("kernel", "workload.tape", 0)
		start = time.Now()
		for i := uint64(0); i < sz.instrs; i++ {
			cur.Next()
		}
		tapeD += time.Since(start)
		sp.end()

		c, err := cpu.New(cpu.DefaultConfig())
		if err != nil {
			return nil, err
		}
		if _, err := c.AddThread(spec.Clone(), []core.Estimator{core.NewPaCo(core.PaCoConfig{})}); err != nil {
			return nil, err
		}
		c.RunCycles(sz.cycles / 4)
		sp = tr.begin("kernel", "cpu.core", 0)
		before := c.Stats().Cycles
		start = time.Now()
		c.RunCycles(sz.cycles)
		coreD += time.Since(start)
		sp.end()
		coreCycles += c.Stats().Cycles - before
		for i := uint64(0); i < sz.stageCycles; i++ {
			c.StepTimed(&st)
		}

		b, err := cpu.NewBatch(spec.Clone())
		if err != nil {
			return nil, err
		}
		lanes := make([]*cpu.Core, batchLanes)
		for i := range lanes {
			if lanes[i], err = cpu.New(cpu.DefaultConfig()); err != nil {
				return nil, err
			}
			if _, err := b.Attach(lanes[i], []core.Estimator{core.NewPaCo(core.PaCoConfig{})}); err != nil {
				return nil, err
			}
		}
		b.Run(sz.instrs / 8)
		var laneBefore uint64
		for _, c := range lanes {
			laneBefore += c.Stats().Cycles
		}
		sp = tr.begin("kernel", "cpu.batch", 0)
		start = time.Now()
		b.Run(sz.instrs / 2)
		batchD += time.Since(start)
		sp.end()
		for _, c := range lanes {
			batchCycles += c.Stats().Cycles
		}
		batchCycles -= laneBefore
	}
	instrs := float64(sz.instrs) * float64(len(specs))
	kcyc := float64(st.Cycles) / 1e3
	return map[string]float64{
		"workload.walker.ns_per_instr":       float64(walkerD.Nanoseconds()) / instrs,
		"workload.tape.ns_per_instr":         float64(tapeD.Nanoseconds()) / instrs,
		"cpu.kcycles_per_s":                  float64(coreCycles) / 1e3 / coreD.Seconds(),
		"cpu.batch.kcycles_per_s":            float64(batchCycles) / 1e3 / batchD.Seconds(),
		"cpu.stage.fetch.ns_per_kcycle":      float64(st.Fetch.Nanoseconds()) / kcyc,
		"cpu.stage.issue.ns_per_kcycle":      float64(st.Issue.Nanoseconds()) / kcyc,
		"cpu.stage.complete.ns_per_kcycle":   float64(st.Complete.Nanoseconds()) / kcyc,
		"cpu.stage.arrive.ns_per_kcycle":     float64(st.Arrive.Nanoseconds()) / kcyc,
		"cpu.stage.retire.ns_per_kcycle":     float64(st.Retire.Nanoseconds()) / kcyc,
		"cpu.stage.estimators.ns_per_kcycle": float64(st.Estimators.Nanoseconds()) / kcyc,
	}, nil
}
