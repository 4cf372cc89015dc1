package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"paco/internal/core"
	"paco/internal/cpu"
	"paco/internal/workload"
)

// Batched lockstep execution. A campaign sweep re-simulates the same
// instruction stream once per grid cell; cells that differ only in
// estimator or gating configuration pay the dominant stream-generation
// cost K times. The batch planner groups cells by stream key — the
// content address of (workload spec or benchmark name, seed override,
// instruction and warmup quotas) — and each group executes as one
// cpu.Batch: one shared workload.Tape, with ungated cells merged as
// extra estimators on a shared core (estimators are passive observers
// absent a gate) and gated cells on their own cores replaying the tape.
//
// Every unit runs on this lane engine, one cell or K cells. The planner
// is a pure function of the job slice, and the lockstep scheduler
// cannot perturb per-core evolution (see cpu.Batch), so a cell's result
// is byte-identical at any K to the same job run alone on a walker-fed
// core — shard content addresses and the federation's determinism
// guarantees are untouched.

// batchDomain versions the stream-key computation, domain-separated
// from shard IDs.
const batchDomain = "paco-batch/v1"

// DefaultBatchK is the batch width the CLIs and server default to: wide
// enough to amortize stream generation across a typical refresh-axis
// sweep, narrow enough that a batch's working set (K cores' predictor
// and cache state) stays cache-resident.
const DefaultBatchK = 8

// BatchUnit is one planned execution unit: the cells (indices into the
// planned job slice) that run together on one shared instruction
// stream.
type BatchUnit struct {
	// Key is the unit's stream key — the content address of the shared
	// workload stream and run shape. Empty for singleton units of jobs
	// that cannot be batched (custom Exec jobs).
	Key string `json:"key,omitempty"`

	// Cells are indices into the planned job slice, ascending.
	Cells []int `json:"cells"`
}

// StreamKey returns the job's batch stream key: the SHA-256 content
// address of the workload it fetches (explicit spec or benchmark name),
// its seed override, and its instruction/warmup quotas. Jobs with equal
// stream keys consume identical goodpath instruction streams over
// identical quota windows, so they may share one tape. The second
// result is false for jobs that cannot be batched (custom Exec jobs).
func StreamKey(job *Job) (string, bool) {
	if job.Exec != nil {
		return "", false
	}
	var stream []byte
	if job.Spec != nil {
		raw, err := json.Marshal(job.Spec)
		if err != nil {
			return "", false
		}
		stream = raw
	} else {
		stream = []byte("bench:" + job.Benchmark)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00%d", batchDomain, stream, job.Seed, job.Instructions, job.Warmup)
	return hex.EncodeToString(h.Sum(nil)), true
}

// PlanBatches partitions the jobs into execution units of at most
// batchK cells each, grouping jobs by stream key. Every job lands in
// exactly one unit; groups split into balanced chunks (Ranges); units
// are ordered by first cell, so a plan over a grid's workload-major job
// order stays contiguous. batchK <= 1 plans one cell per unit.
func PlanBatches(jobs []Job, batchK int) []BatchUnit {
	batchK = max(batchK, 1)
	units := make([]BatchUnit, 0, len(jobs))
	type group struct {
		key   string
		cells []int
	}
	byKey := map[string]int{}
	var groups []*group
	for i := range jobs {
		key, ok := StreamKey(&jobs[i])
		if !ok {
			groups = append(groups, &group{cells: []int{i}})
			continue
		}
		gi, seen := byKey[key]
		if !seen {
			gi = len(groups)
			byKey[key] = gi
			groups = append(groups, &group{key: key})
		}
		groups[gi].cells = append(groups[gi].cells, i)
	}
	for _, g := range groups {
		n := (len(g.cells) + batchK - 1) / batchK
		for _, r := range Ranges(len(g.cells), n) {
			units = append(units, BatchUnit{Key: g.key, Cells: g.cells[r[0]:r[1]]})
		}
	}
	// Order units by first cell so execution and progress reporting
	// follow job order as closely as the grouping allows.
	sortUnits(units)
	return units
}

// sortUnits orders units by their first cell (insertion sort: plans are
// small and mostly ordered already).
func sortUnits(units []BatchUnit) {
	for i := 1; i < len(units); i++ {
		for j := i; j > 0 && units[j].Cells[0] < units[j-1].Cells[0]; j-- {
			units[j], units[j-1] = units[j-1], units[j]
		}
	}
}

// batchLane is one cell's state in the lane engine.
type batchLane struct {
	spec    *workload.Spec
	machine cpu.Config
	hooks   Hooks
	c       *cpu.Core
	tid     int
	settled bool
}

// executeUnit runs a unit on one shared instruction stream and returns
// one Result per cell, each byte-identical to running that cell alone
// through finishRun on a private walker-fed core: the per-lane
// construction sequence (resolve spec, build core, run Setup), the
// warmup/refresh/reset/measure schedule, and the Result assembly all
// mirror it exactly. Exec jobs (always one-cell units) settle in the
// prologue by calling Exec with ctx.
//
// A panic (from user Exec/Setup/estimator/gate code) fails every cell in
// the unit that has not already settled with a "panic: ..." error;
// per-lane isolation is not possible once lanes share a core.
func executeUnit(ctx context.Context, jobs []Job, cells []int) (out []Result) {
	out = make([]Result, len(cells))
	lanes := make([]*batchLane, len(cells))
	settle := func(j int, res *Result, err error) {
		job := &jobs[cells[j]]
		if err != nil {
			out[j] = Result{JobID: job.ID, Index: cells[j], Benchmark: job.Benchmark, Err: err.Error()}
		} else {
			if res == nil {
				res = &Result{}
			}
			res.JobID = job.ID
			res.Index = cells[j]
			if res.Benchmark == "" {
				res.Benchmark = job.Benchmark
			}
			out[j] = *res
		}
		lanes[j].settled = true
	}
	defer func() {
		if p := recover(); p != nil {
			for j := range cells {
				if lanes[j] == nil || !lanes[j].settled {
					job := &jobs[cells[j]]
					out[j] = Result{JobID: job.ID, Index: cells[j], Benchmark: job.Benchmark,
						Err: fmt.Sprintf("panic: %v", p)}
				}
			}
		}
	}()

	// Per-lane prologue, in cell order: resolve the workload, build the
	// machine, construct the hooks. Every lane that does not survive it
	// settles here.
	for j, ci := range cells {
		job := &jobs[ci]
		ln := &batchLane{}
		lanes[j] = ln
		if job.Exec != nil {
			res, err := job.Exec(ctx)
			settle(j, res, err)
			continue
		}
		spec, err := resolveSpec(job)
		if err != nil {
			settle(j, nil, err)
			continue
		}
		ln.spec = spec
		ln.machine = cpu.DefaultConfig()
		if job.Machine != nil {
			ln.machine = *job.Machine
		}
		c, err := cpu.New(ln.machine)
		if err != nil {
			settle(j, nil, err)
			continue
		}
		ln.c = c
		if job.Setup != nil {
			ln.hooks = job.Setup()
		}
		if ln.hooks.Attached != nil {
			// The hooks need a private core/walker handle; run the whole
			// cell inline on a walker-fed core with the hooks already
			// built (Setup runs exactly once either way).
			res, err := finishRun(c, spec, job, ln.hooks)
			settle(j, res, err)
		}
	}

	// Build the shared tape from the first surviving lane's spec (all
	// lanes in a unit resolve content-equal specs). A walker build error
	// fails each lane exactly where AddThread would have.
	var batch *cpu.Batch
	for j := range cells {
		if lanes[j].settled {
			continue
		}
		b, err := cpu.NewBatch(lanes[j].spec)
		if err != nil {
			for k := j; k < len(cells); k++ {
				if !lanes[k].settled {
					settle(k, nil, err)
				}
			}
			return out
		}
		batch = b
		break
	}
	if batch == nil {
		return out // every lane settled in the prologue
	}

	// Lane placement: gated cells keep their own core on the tape;
	// ungated cells are passive observers (estimators feed back into the
	// core only through a gate), so they merge onto shared cores — first
	// fit in cell order, same machine configuration, at most
	// cpu.MaxEstimators estimators per core.
	type sharedCore struct {
		machine cpu.Config
		c       *cpu.Core
		ests    []core.Estimator
		lanes   []int // indices into lanes/cells
	}
	var shares []*sharedCore
	for j := range cells {
		ln := lanes[j]
		if ln.settled {
			continue
		}
		if ln.hooks.Gate != nil {
			tid, err := batch.Attach(ln.c, ln.hooks.Estimators)
			if err != nil {
				settle(j, nil, err)
				continue
			}
			ln.tid = tid
			ln.c.SetGate(ln.hooks.Gate)
			continue
		}
		var sc *sharedCore
		for _, s := range shares {
			if s.machine == ln.machine && len(s.ests)+len(ln.hooks.Estimators) <= cpu.MaxEstimators {
				sc = s
				break
			}
		}
		if sc == nil {
			sc = &sharedCore{machine: ln.machine, c: ln.c}
			shares = append(shares, sc)
		}
		sc.lanes = append(sc.lanes, j)
		sc.ests = append(sc.ests, ln.hooks.Estimators...)
		ln.c = sc.c
	}
	for _, sc := range shares {
		tid, err := batch.Attach(sc.c, sc.ests)
		for _, j := range sc.lanes {
			if err != nil {
				settle(j, nil, err)
			} else {
				lanes[j].tid = tid
			}
		}
	}

	var active []int
	for j := range cells {
		if !lanes[j].settled {
			active = append(active, j)
		}
	}
	if len(active) == 0 {
		return out
	}

	// The warmup/refresh/reset/probe/measure schedule, per finishRun.
	// Quotas are per-unit constants (the stream key pins them).
	template := jobs[cells[0]]
	batch.Run(template.Warmup)
	for _, j := range active {
		refreshPaCos(lanes[j].hooks.Estimators)
	}
	seen := map[*cpu.Core]bool{}
	for _, j := range active {
		c := lanes[j].c
		if seen[c] {
			continue
		}
		seen[c] = true
		c.ResetStats()
		var probes []func(int, bool)
		for _, k := range active {
			if lanes[k].c == c && lanes[k].hooks.Probe != nil {
				probes = append(probes, lanes[k].hooks.Probe)
			}
		}
		switch len(probes) {
		case 0:
		case 1:
			c.SetProbe(probes[0])
		default:
			probes := probes
			c.SetProbe(func(tid int, goodpath bool) {
				for _, p := range probes {
					p(tid, goodpath)
				}
			})
		}
	}
	batch.Run(template.Instructions)

	for _, j := range active {
		ln := lanes[j]
		settle(j, collectResult(ln.c, ln.spec, ln.tid, ln.hooks), nil)
	}
	return out
}
