package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"paco/internal/campaign"
	"paco/internal/experiments"
	"paco/internal/obs"
	"paco/internal/workload"
)

// reproExperiments is paco-repro's experiment order.
var reproExperiments = []string{"fig2", "fig3a", "fig3b", "table7", "fig8", "fig9", "fig10", "fig12", "tableA1"}

// reproBench is the repro workload: the paco-repro -quick experiment
// set, scaled down by reproDivisor, run through experiments.Run at
// Workers = GOMAXPROCS, unbatched, as paco-repro runs it. Its inputs are
// the paper's fixed benchmark models, so the seed does not apply.
type reproBench struct {
	o      opts
	cfg    experiments.Config
	passes [][]byte
	cells  int // campaign cells in one pass, counted by the reference pass

	lastCampaign *campaignStats // the latest traced pass's campaigns
}

// reproDivisor scales every instruction and cycle count of
// experiments.Quick down, the refresh period with them: a full -quick
// pass takes 10 to 12 s on a 2-CPU host, so a run held two or three
// passes and its median followed single slow passes past the bounds
// (perfbench/README.md). A quarter pass takes about 3.2 s.
const reproDivisor = 4

// reproConfig is experiments.Quick divided by reproDivisor, or a much
// smaller fraction of it at test scale.
func reproConfig(o opts) experiments.Config {
	cfg := experiments.Quick()
	div := uint64(reproDivisor)
	if o.tiny {
		div = 20
	}
	for _, n := range []*uint64{&cfg.Instructions, &cfg.Warmup, &cfg.GatingInstructions, &cfg.GatingWarmup,
		&cfg.SMTWarmupCycles, &cfg.SMTMeasureCycles, &cfg.RefreshPeriod} {
		*n /= div
	}
	cfg.Workers = o.clients
	return cfg
}

// newRepro's set-up compiles every benchmark model into its program
// (the generation each cell repeats when it builds its walker).
func newRepro(o opts) (bench, error) {
	for _, spec := range workload.AllBenchmarks() {
		if _, err := workload.NewWalker(spec); err != nil {
			return nil, err
		}
	}
	return &reproBench{o: o, cfg: reproConfig(o)}, nil
}

func (b *reproBench) close() {}

// reproPass runs every experiment once into one report, as paco-repro
// writes it.
func reproPass(cfg experiments.Config, tr *tracer, trace string, cur *atomic.Uint64) ([]byte, []error) {
	var buf bytes.Buffer
	var errs []error
	root := tr.begin(trace, "repro.pass", 0)
	for _, id := range reproExperiments {
		sp := tr.begin(trace, "experiments."+id, root.ID())
		if cur != nil {
			cur.Store(sp.ID())
		}
		fmt.Fprintf(&buf, "==================== %s ====================\n", id)
		if err := experiments.Run(id, cfg, &buf); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", id, err))
		}
		fmt.Fprintln(&buf)
		sp.end()
	}
	root.end()
	return buf.Bytes(), errs
}

func (b *reproBench) round(tr *tracer, idx int) (roundStats, error) {
	rs := newRound()
	cfg := b.cfg
	var cur atomic.Uint64
	var cs *campaignStats
	if tr != nil {
		cs = &campaignStats{}
		cfg.Execute = cs.executor(tr, "repro", &cur)
	}
	start := time.Now()
	report, errs := reproPass(cfg, tr, "repro", &cur)
	rs.wall = time.Since(start)
	rs.attempted = len(reproExperiments)
	for _, err := range errs {
		rs.fail("repro pass %d: %v", idx, err)
	}
	// A repro user's request is a whole pass, so the pass is also the
	// operation whose latency p50_ms reports; experiments.<id>.s in a
	// traced run splits it.
	rs.lat["pass"] = []float64{ms(rs.wall)}
	rs.vals["repro_wall_s"] = rs.wall.Seconds()
	b.passes = append(b.passes, report)
	if cs != nil {
		b.lastCampaign = cs
	}
	return rs, nil
}

// verify runs a reference pass on one worker, outside the timed
// window, and requires every pass's report to equal it byte for byte.
// The reference pass also counts the campaign cells of one pass, which
// turns each pass's wall time into cells_per_s.
func (b *reproBench) verify(rounds []roundStats) (int, []string) {
	cfg := b.cfg
	cfg.Workers = 1
	cells := 0
	cfg.Execute = func(ctx context.Context, _ int, jobs []campaign.Job) ([]campaign.Result, error) {
		cells += len(jobs)
		return campaign.Run(ctx, 1, jobs)
	}
	ref, errs := reproPass(cfg, nil, "", nil)
	b.cells = cells
	for i := range rounds {
		rounds[i].vals["cells_per_s"] = float64(cells) / rounds[i].wall.Seconds()
	}
	var bad []string
	for _, err := range errs {
		bad = append(bad, fmt.Sprintf("repro reference pass: %v", err))
	}
	bad = append(bad, checkReproReports(b.passes, ref)...)
	b.passes = nil
	return len(rounds), bad
}

// checkReproReports requires every pass's report to be byte-equal to
// the reference pass's.
func checkReproReports(passes [][]byte, ref []byte) []string {
	var bad []string
	for i, p := range passes {
		if !bytes.Equal(p, ref) {
			bad = append(bad, fmt.Sprintf("repro pass %d: report differs from the one-worker reference (%d vs %d bytes)", i, len(p), len(ref)))
		}
	}
	return bad
}

// campaignStats accumulates what a traced pass's campaigns did: cells,
// their summed execution time, and worker time available.
type campaignStats struct {
	mu         sync.Mutex
	cells      int
	workerS    float64
	simulation *obs.Histogram
}

// executor is the traced pass's experiments.Config.Execute: the same
// campaign runner experiments use by default, inside a campaign.run
// span parented to the current experiment's span, with the runner's
// per-cell duration histogram attached.
func (cs *campaignStats) executor(tr *tracer, trace string, cur *atomic.Uint64) func(context.Context, int, []campaign.Job) ([]campaign.Result, error) {
	reg := obs.NewRegistry()
	cs.simulation = reg.Histogram("cell_seconds", "per-cell simulate seconds", obs.DurationBuckets())
	return func(ctx context.Context, workers int, jobs []campaign.Job) ([]campaign.Result, error) {
		sp := tr.begin(trace, "campaign.run", cur.Load())
		r := campaign.Runner{Workers: workers, SimDuration: cs.simulation}
		start := time.Now()
		res, err := r.Run(ctx, jobs)
		wall := time.Since(start).Seconds()
		sp.end()
		cs.mu.Lock()
		cs.cells += len(jobs)
		cs.workerS += wall * float64(min(workers, len(jobs)))
		cs.mu.Unlock()
		return res, err
	}
}

// layers reports the traced pass's per-experiment and campaign split,
// then replays the benchmark models through the kernel layers.
func (b *reproBench) layers(tr *tracer) (map[string]float64, error) {
	cs := b.lastCampaign
	if cs == nil {
		return nil, fmt.Errorf("no traced pass")
	}
	st := summarize(tr.snapshot())
	m := map[string]float64{}
	self := 0.0
	for _, id := range reproExperiments {
		l := st["experiments."+id]
		if l == nil {
			return nil, fmt.Errorf("no span for %s", id)
		}
		m["experiments."+id+".s"] = l.TotalS
		self += l.SelfS
	}
	m["experiments.self_s"] = self
	m["campaign.cells"] = float64(cs.cells)
	m["campaign.exec_s"] = cs.simulation.Sum()
	m["campaign.busy_frac"] = cs.simulation.Sum() / cs.workerS
	k, err := kernelLayers(tr, b.o)
	if err != nil {
		return nil, err
	}
	for n, v := range k {
		m[n] = v
	}
	return m, nil
}
