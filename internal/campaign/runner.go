package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paco/internal/obs"
)

// Runner executes campaigns across a bounded worker pool. A Runner
// carries live progress counters (see Snapshot) and must not be copied
// after its first Run.
type Runner struct {
	// Workers bounds concurrent jobs; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int

	// BatchK is the lane engine's unit width: cells sharing one
	// instruction stream (equal StreamKey) execute together, up to
	// BatchK per unit, amortizing workload generation across
	// configurations. Results are byte-identical at any K. <= 1 runs one
	// cell per unit.
	BatchK int

	// OnProgress, when non-nil, is called after every job finishes (or is
	// skipped on cancellation) with the number of settled jobs, the
	// campaign size, and the job's result. Calls are serialized; the
	// callback needs no locking of its own.
	OnProgress func(done, total int, r *Result)

	// Optional observability hooks, all nil-safe and allocation-free on
	// the per-cell path (obs instruments no-op when nil, so the default
	// CLI configuration pays nothing). SimDuration observes each cell's
	// simulate wall seconds; QueueWait observes how long the cell sat
	// between Run starting and a worker picking it up. Recorder, when
	// non-nil, records one "cell" span per executed job under Trace,
	// parented to Parent (a job- or shard-level span).
	SimDuration *obs.Histogram
	QueueWait   *obs.Histogram
	Recorder    *obs.Recorder
	Trace       string
	Parent      uint64

	// Batch instrumentation (nil-safe like the hooks above). BatchSize
	// observes every execution unit's cell count; BatchedCells and
	// SingletonCells count cells in multi-cell and one-cell units. A
	// multi-cell unit records one "batch" span with per-cell "cell"
	// spans under it.
	BatchSize      *obs.Histogram
	BatchedCells   *obs.Counter
	SingletonCells *obs.Counter

	// Live counters behind Snapshot. queued is jobs not yet picked up,
	// running is jobs currently executing, done is settled jobs
	// (completed, failed, or skipped).
	queued, running, done atomic.Int64
}

// Snapshot is a point-in-time view of a running campaign: how many jobs
// are still queued, executing right now, and settled. It is safe to call
// from any goroutine while Run is in flight — paco-serve's /metrics and
// job-status endpoints poll it.
type Snapshot struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
}

// Snapshot reports the runner's current progress. Before the first Run
// all counts are zero; after a Run completes Queued and Running return
// to zero and Done holds the campaign size.
func (r *Runner) Snapshot() Snapshot {
	return Snapshot{
		Queued:  int(r.queued.Load()),
		Running: int(r.running.Load()),
		Done:    int(r.done.Load()),
	}
}

// Run executes the campaign and returns one Result per job, in job
// order, regardless of worker count or completion order.
//
// A job that fails or panics records its error in its Result and does
// not disturb the others; Run then returns the first failure (by job
// index) alongside the full result slice. Cancelling ctx stops new jobs
// from starting — in-flight jobs run to completion, unstarted jobs are
// marked Skipped — and Run returns ctx.Err().
func (r *Runner) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	units := PlanBatches(jobs, r.BatchK)
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}

	results := make([]Result, len(jobs))
	started := make([]bool, len(units))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done, total := 0, len(jobs)
	r.queued.Store(int64(total))
	r.running.Store(0)
	r.done.Store(0)
	progress := func(res *Result) {
		mu.Lock()
		done++
		if r.OnProgress != nil {
			r.OnProgress(done, total, res)
		}
		mu.Unlock()
	}

	runStart := time.Now()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ui := range idxCh {
				r.runUnit(ctx, jobs, units[ui], results, runStart, progress)
			}
		}()
	}

	// Feed unit indices until the campaign is exhausted or ctx is
	// cancelled; the main goroutine feeds, so it knows exactly which
	// units were handed out.
feed:
	for ui := range units {
		select {
		case idxCh <- ui:
			started[ui] = true
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()

	for ui := range units {
		if !started[ui] {
			for _, i := range units[ui].Cells {
				r.queued.Add(-1)
				r.done.Add(1)
				results[i] = skipped(&jobs[i], i, ctx)
				progress(&results[i])
			}
		}
	}

	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, FirstError(results)
}

// runUnit executes one planned unit on a worker goroutine through the
// lane engine. A one-cell unit records one "cell" span under Parent; a
// wider unit records one "batch" span with a "cell" span per cell under
// it.
func (r *Runner) runUnit(ctx context.Context, jobs []Job, u BatchUnit, results []Result, runStart time.Time, progress func(*Result)) {
	k := len(u.Cells)
	r.queued.Add(-int64(k))
	r.running.Add(int64(k))
	wait := time.Since(runStart).Seconds()
	for range u.Cells {
		r.QueueWait.Observe(wait)
	}
	r.BatchSize.Observe(float64(k))

	var sp obs.Span
	parent := r.Parent
	if k == 1 {
		r.SingletonCells.Inc()
	} else {
		r.BatchedCells.Add(uint64(k))
		short := u.Key
		if len(short) > 12 {
			short = short[:12]
		}
		sp = r.Recorder.Start(r.Trace, "batch", fmt.Sprintf("%s*%d", short, k), r.Parent)
		parent = sp.ID()
	}
	cellSpans := make([]obs.Span, k)
	for j, i := range u.Cells {
		cellSpans[j] = r.Recorder.Start(r.Trace, "cell", jobs[i].ID, parent)
	}
	unitStart := time.Now()
	if ctx.Err() != nil {
		for _, i := range u.Cells {
			results[i] = skipped(&jobs[i], i, ctx)
		}
	} else {
		for j, res := range executeUnit(ctx, jobs, u.Cells) {
			results[u.Cells[j]] = res
		}
	}
	// One unit of K cells is one simulate pass; attribute the wall time
	// evenly so per-cell duration reflects the amortized cost.
	per := time.Since(unitStart).Seconds() / float64(k)
	unitErr := ""
	for j, i := range u.Cells {
		r.SimDuration.Observe(per)
		cellSpans[j].End(results[i].Err)
		if unitErr == "" {
			unitErr = results[i].Err
		}
	}
	sp.End(unitErr)
	r.running.Add(-int64(k))
	r.done.Add(int64(k))
	for _, i := range u.Cells {
		progress(&results[i])
	}
}

func skipped(job *Job, idx int, ctx context.Context) Result {
	errText := "skipped"
	if err := ctx.Err(); err != nil {
		errText = err.Error()
	}
	return Result{JobID: job.ID, Index: idx, Benchmark: job.Benchmark, Skipped: true, Err: errText}
}

// Run executes jobs on a fresh Runner — the convenience entry point for
// callers without progress reporting.
func Run(ctx context.Context, workers int, jobs []Job) ([]Result, error) {
	r := Runner{Workers: workers}
	return r.Run(ctx, jobs)
}
