package cpu

import (
	"paco/internal/core"
	"paco/internal/workload"
)

// Batch advances K independent cores that replay one shared instruction
// stream (workload.Tape) in lockstep. It is the kernel of the batched
// campaign path: grid cells that differ only in estimator or gating
// configuration share the expensive goodpath generation and pay only
// the cheap ring replay per lane.
//
// The cores are plain Cores — per-core state (structure-of-arrays
// across the batch: one predictor, ROB, cache hierarchy, estimator set
// per lane) is untouched, and each core sees exactly the instruction
// sequence, quota semantics, and cycle evolution it would see running
// alone. The scheduler only chooses *when* each core steps (always the
// laggard by tape position, one instruction quantum at a time, which
// bounds ring drift while preserving per-core cache locality); since a
// core's evolution is a pure function of its own state and the shared
// immutable stream, scheduling order cannot leak between lanes — the
// determinism argument behind the byte-identical-output guarantee.
//
// A Batch is single-goroutine, like a Core.
type Batch struct {
	tape  *workload.Tape
	cores []*Core
	done  []bool // scratch for Run; len == len(cores)
}

// batchQuantum is how many tape instructions a core consumes per
// scheduling turn. Larger quanta improve per-lane cache locality (a
// lane's hot state stays resident across the burst); smaller quanta
// bound how far cursors drift apart (ring memory). ~512 instructions is
// a few hundred KB of per-lane state touched per turn against a ring
// span of a few thousand entries.
const batchQuantum = 512

// NewBatch builds a batch over one workload stream. The spec is
// validated exactly as AddThread would (the error is NewWalker's).
func NewBatch(spec *workload.Spec) (*Batch, error) {
	tape, err := workload.NewTape(spec)
	if err != nil {
		return nil, err
	}
	return &Batch{tape: tape}, nil
}

// Tape returns the shared stream (diagnostics).
func (b *Batch) Tape() *workload.Tape { return b.tape }

// K returns the number of lanes (cores) attached.
func (b *Batch) K() int { return len(b.cores) }

// Attach adds a core as a batch lane: it gains one thread fed by a new
// tape cursor with the given estimators. Attach must precede Run (all
// cursors are created before consumption begins). The returned thread
// id mirrors AddThread's.
func (b *Batch) Attach(c *Core, ests []core.Estimator) (int, error) {
	cur := b.tape.NewCursor()
	tid, err := c.AddThreadCursor(cur, ests)
	if err != nil {
		// The unused cursor must not pin the ring at position zero.
		b.tape.DropCursor(cur)
		return 0, err
	}
	b.cores = append(b.cores, c)
	b.done = append(b.done, false)
	return tid, nil
}

// cursor returns lane i's tape cursor (every lane has exactly one
// cursor-fed thread, attached by Attach).
func (b *Batch) cursor(i int) *workload.Cursor { return b.cores[i].threads[0].cursor }

// Run simulates until every lane has retired goodInstrs further
// goodpath instructions — per-core semantics identical to calling
// Core.Run(goodInstrs, 0) on each lane in isolation. Lanes are
// interleaved laggard-first in quanta of batchQuantum tape
// instructions. A sole lane shares its stream with no one, so it reads
// the tape's walker directly and runs exactly as Core.Run on a
// walker-fed core, without the ring or the scheduler.
func (b *Batch) Run(goodInstrs uint64) {
	if len(b.cores) == 1 {
		b.cores[0].threads[0].cursor = nil
		b.cores[0].Run(goodInstrs, 0)
		return
	}
	for i, c := range b.cores {
		c.prepareRun(goodInstrs)
		b.done[i] = c.runDone()
	}
	for {
		// Pick the unfinished lane that has consumed the least of the
		// shared stream; running it next keeps the ring span minimal.
		best := -1
		var bestPos uint64
		for i := range b.cores {
			if b.done[i] {
				continue
			}
			if p := b.cursor(i).Pos(); best < 0 || p < bestPos {
				best, bestPos = i, p
			}
		}
		if best < 0 {
			return
		}
		c, cur := b.cores[best], b.cursor(best)
		limit := cur.Pos() + batchQuantum
		for {
			c.Step()
			if c.runDone() {
				b.done[best] = true
				break
			}
			if cur.Pos() >= limit {
				break
			}
		}
	}
}

// FreeRun lifts every lane's retirement quota so cycle-driven stepping
// (StepTimed instrumentation after a quota run) fetches freely.
func (b *Batch) FreeRun() {
	for _, c := range b.cores {
		c.unboundQuota()
	}
}

// StepTimed advances every lane one cycle with per-stage timing
// accumulated into st (st.Cycles counts core-cycles, i.e. K per call).
// Per-cycle lockstep keeps tape drift at fetch-width scale, at the cost
// of the cache locality the quantum scheduler buys — acceptable for the
// short instrumented pass that only measures relative stage cost.
func (b *Batch) StepTimed(st *StageTimes) {
	for _, c := range b.cores {
		c.StepTimed(st)
	}
}
