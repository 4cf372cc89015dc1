// Command perfbench is the repository's end-to-end benchmark. It drives
// the PaCo reproduction in-process through each module's public
// functions and the HTTP API, checks every output against an
// independent path in the same build, and prints each metric with its
// unit, median and quartiles across repeats. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload repro|sweep|sessions|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer, replays the
// workloads' inputs one layer at a time and reports the per-layer
// metrics. README.md maps every metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// opts is one invocation's settings.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	clients  int  // closed-loop clients: GOMAXPROCS
	tiny     bool // test scale: every code path, a fraction of the work
}

// outDir holds each run's record and span file, inside the checkout.
var outDir = filepath.Join(".bench_build", "perfbench")

// bench is one workload. Its constructor is the set-up the benchmark
// times; close releases everything it started.
type bench interface {
	// round runs the workload's seeded work once, tracing into tr when
	// it is non-nil.
	round(tr *tracer, idx int) (roundStats, error)
	// verify runs, after the timed window, the output checks that need
	// an independent computation. It fills per-round values that depend
	// on it and returns how many outputs it checked and each mismatch.
	verify(rounds []roundStats) (checked int, mismatches []string)
	// layers replays the workload's inputs one layer at a time under tr
	// and returns per-layer metrics.
	layers(tr *tracer) (map[string]float64, error)
	close()
}

// roundStats is what one round measured.
type roundStats struct {
	wall      time.Duration
	vals      map[string]float64   // per-round metrics, by report name
	lat       map[string][]float64 // latency samples in ms, by operation
	attempted int
	failures  []string // failed or refused operations, and mismatches
}

func newRound() roundStats {
	return roundStats{vals: map[string]float64{}, lat: map[string][]float64{}}
}

func (r *roundStats) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// workloadDef names a workload and maps its own metrics onto the
// end-to-end names every workload reports.
type workloadDef struct {
	build   func(o opts) (bench, error)
	setups  int      // set-ups a run times; setup_s is their median
	warmups int      // rounds run, and checked, before the window
	wall    string   // -> wall_s
	rate    string   // -> rate_per_s
	p50     string   // -> p50_ms
	report  []string // per-round metrics printed with quartiles
	tails   []string // latency samples printed as tails
}

var workloads = map[string]workloadDef{
	"repro": {
		build:   newRepro,
		setups:  50, // about 45 ms each
		warmups: 1,  // the first pass grows the heap
		wall:    "repro_wall_s",
		rate:    "cells_per_s",
		p50:     "pass_p50_ms",
		report:  []string{"repro_wall_s", "cells_per_s"},
	},
	"sweep": {
		build:  newSweep,
		setups: 8, // about 0.7 s each
		wall:   "round_s",
		rate:   "cells_per_s",
		p50:    "job_p50_ms",
		report: []string{"round_s", "cells_per_s", "job_p50_ms", "hit_p50_ms"},
		tails:  []string{"job_tail_ms", "hit_tail_ms"},
	},
	"sessions": {
		build:  newSessions,
		setups: 8, // about 0.9 s each
		wall:   "round_s",
		rate:   "events_per_s",
		p50:    "chunk_p50_ms",
		report: []string{"round_s", "events_per_s", "chunk_p50_ms", "scores_p50_ms", "close_p50_ms"},
		tails:  []string{"chunk_tail_ms"},
	},
}

// workloadOrder is the order traced runs visit every workload's layers.
var workloadOrder = []string{"repro", "sweep", "sessions"}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	}
	return "ratio"
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the machine-readable result.
type lastLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// record is everything a run measured, written beside the spans.
type record struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Seconds  float64         `json:"seconds"`
	Traced   bool            `json:"traced"`
	Host     hostInfo        `json:"host"`
	Rounds   int             `json:"rounds"`
	Report   []summary       `json:"report"`
	Tails    map[string]tail `json:"tails,omitempty"`
	Layers   []*layerStat    `json:"spans,omitempty"`
	Failures []string        `json:"failures,omitempty"`
	Result   lastLine        `json:"result"`
	spans    []span
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: repro, sweep, sessions, or all three in turn")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measured window per run")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	if _, ok := workloads[names[0]]; !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload repro|sweep|sessions|all, --seconds > 0, --trace 0|1")
		return 2
	}
	// With all three, the last line prefixes each metric with its
	// workload and is correct only when every workload is.
	last := lastLine{Correct: true, Metrics: map[string]metricOut{}}
	for _, n := range names {
		o := opts{workload: n, seed: *seed, seconds: *seconds, trace: *traced == 1,
			clients: runtime.GOMAXPROCS(0)}
		rec, err := measure(o)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		rec.Host = fingerprint(".")
		printReport(stdout, rec)
		if err := save(rec, *traced); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if len(names) == 1 {
			last = rec.Result
			break
		}
		last.Correct = last.Correct && rec.Result.Correct
		last.Attempted += rec.Result.Attempted
		last.Failed += rec.Result.Failed
		for k, m := range rec.Result.Metrics {
			last.Metrics[n+"."+k] = m
		}
	}
	line, _ := json.Marshal(last)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// save writes the run's record, and a traced run's spans, to outDir.
func save(rec *record, traced int) error {
	base := fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, traced)
	if err := writeJSONFile(filepath.Join(outDir, "result-"+base+".json"), rec); err != nil {
		return err
	}
	if rec.spans == nil {
		return nil
	}
	t := &tracer{spans: rec.spans}
	return t.write(filepath.Join(outDir, "spans-"+base+".jsonl"))
}

// measure builds the workload, runs it and checks its outputs.
func measure(o opts) (*record, error) {
	def := workloads[o.workload]
	b, setup, err := build(def, o)
	if err != nil {
		return nil, err
	}
	defer b.close()
	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace}
	if o.trace {
		return rec, measureTraced(o, b, rec)
	}

	var warm []roundStats
	for i := 0; i < def.warmups; i++ {
		rs, err := b.round(nil, i)
		if err != nil {
			return nil, err
		}
		warm = append(warm, rs)
	}
	runtime.GC()
	peak := sampleHeap()
	// Rounds run while the next one, if it takes as long as the last,
	// would be centred inside the window: a run of long rounds (repro
	// passes) then overshoots the window by at most half a round.
	var rounds []roundStats
	start := time.Now()
	window := time.Duration(o.seconds * float64(time.Second))
	for i := 0; i == 0 || time.Since(start)+rounds[i-1].wall/2 < window; i++ {
		rs, err := b.round(nil, len(warm)+i)
		if err != nil {
			peak()
			return nil, err
		}
		rounds = append(rounds, rs)
	}
	heapMB := peak()
	checked, mismatches := b.verify(append(warm, rounds...))

	attempted, failures := checked, mismatches
	for _, rs := range warm {
		attempted += rs.attempted
		failures = append(failures, rs.failures...)
	}
	ser := map[string]*series{}
	lat := map[string][]float64{}
	for _, rs := range rounds {
		attempted += rs.attempted
		failures = append(failures, rs.failures...)
		for k, v := range rs.vals {
			if ser[k] == nil {
				ser[k] = &series{Name: k, Unit: unitOf(k)}
			}
			ser[k].add(v)
		}
		for k, v := range rs.lat {
			lat[k] = append(lat[k], v...)
		}
	}
	failedShare := float64(len(failures)) / float64(max(attempted, 1))
	rec.Rounds = len(rounds)
	rec.Failures = failures
	rec.Report = append(rec.Report, setup.summary())
	// Round-level metrics are one value per round; a _p50_ms metric
	// pools its latency samples, so its quartiles are the samples'.
	for k, v := range lat {
		ser[k+"_p50_ms"] = &series{Name: k + "_p50_ms", Unit: "ms", Vals: v}
	}
	for _, k := range def.report {
		s := ser[k]
		if s == nil {
			return nil, fmt.Errorf("%s: no %s measured", o.workload, k)
		}
		rec.Report = append(rec.Report, s.summary())
	}
	rec.Report = append(rec.Report,
		summary{Name: "peak_heap_mb", Unit: "MB", Median: heapMB, Q1: heapMB, Q3: heapMB, N: 1},
		summary{Name: "failed_share", Unit: "ratio", Median: failedShare, Q1: failedShare, Q3: failedShare, N: 1})
	if len(def.tails) > 0 {
		rec.Tails = map[string]tail{}
		for _, k := range def.tails {
			rec.Tails[k] = tailOf(lat[strings.TrimSuffix(k, "_tail_ms")])
		}
	}
	rec.Result = lastLine{
		Correct:   len(failures) == 0,
		Attempted: max(attempted, 1),
		Failed:    len(failures),
		Metrics: map[string]metricOut{
			"setup_s":      {median(setup.Vals), "s"},
			"peak_heap_mb": {heapMB, "MB"},
			"wall_s":       {median(ser[def.wall].Vals), "s"},
			"rate_per_s":   {median(ser[def.rate].Vals), "1/s"},
			"p50_ms":       {median(ser[def.p50].Vals), "ms"},
		},
	}
	return rec, nil
}

// build constructs the workload def.setups times (test scale: once),
// keeping the last, and returns the set-up times. Each workload sets up
// often enough that a run spends about a second or more in set-up, so
// the median is not at the mercy of one slow build. Every set-up starts
// from a collected heap, as the first one in a fresh process does, so
// none pays for the garbage of the one before.
func build(def workloadDef, o opts) (bench, *series, error) {
	reps := def.setups
	if o.tiny {
		reps = 1
	}
	setup := &series{Name: "setup_s", Unit: "s"}
	var b bench
	for i := 0; i < reps; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		start := time.Now()
		nb, err := def.build(o)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setup.add(time.Since(start).Seconds())
		b = nb
	}
	return b, setup, nil
}

// measureTraced is the separate traced run. The selected workload
// alternates untraced and traced rounds (their median wall times give
// the tracing overhead); then every workload's inputs are replayed one
// layer at a time, so each traced run reports every per-layer metric.
func measureTraced(o opts, b bench, rec *record) error {
	all := map[string]float64{}
	var spans []span
	var failures []string
	attempted := 0
	for _, name := range workloadOrder {
		wb, tr := b, newTracer()
		var rounds []roundStats
		if name == o.workload {
			var err error
			if rounds, all["bench.trace_overhead_frac"], err = traceOverhead(b, tr); err != nil {
				return err
			}
			rec.Rounds = len(rounds)
		} else {
			wo := o
			wo.workload = name
			nb, err := workloads[name].build(wo)
			if err != nil {
				return fmt.Errorf("%s set-up: %w", name, err)
			}
			defer nb.close()
			wb = nb
			rs, err := wb.round(tr, 0)
			if err != nil {
				return err
			}
			rounds = []roundStats{rs}
		}
		checked, mismatches := wb.verify(rounds)
		attempted += checked
		failures = append(failures, mismatches...)
		for _, rs := range rounds {
			attempted += rs.attempted
			failures = append(failures, rs.failures...)
		}
		m, err := wb.layers(tr)
		if err != nil {
			return fmt.Errorf("%s layers: %w", name, err)
		}
		for k, v := range m {
			all[k] = v
		}
		spans = append(spans, tr.snapshot()...)
	}
	for _, l := range summarize(spans) {
		rec.Layers = append(rec.Layers, l)
	}
	sort.Slice(rec.Layers, func(i, j int) bool { return rec.Layers[i].Name < rec.Layers[j].Name })
	rec.spans = spans
	rec.Failures = failures
	out := map[string]metricOut{}
	for k, v := range all {
		out[k] = metricOut{v, layerUnit(k)}
	}
	rec.Result = lastLine{Correct: len(failures) == 0, Attempted: max(attempted, 1), Failed: len(failures), Metrics: out}
	return nil
}

// traceOverhead runs one warm-up round (first connections and heap
// growth make it slow), then alternates untraced and traced rounds:
// three pairs, or one when a round takes seconds (repro passes). It
// returns every round and (traced - untraced) / untraced of the median
// wall times.
func traceOverhead(b bench, tr *tracer) ([]roundStats, float64, error) {
	warm, err := b.round(nil, 0)
	if err != nil {
		return nil, 0, err
	}
	rounds := []roundStats{warm}
	pairs := 3
	if warm.wall > 2*time.Second {
		pairs = 1
	}
	var plain, traced []float64
	for p := 0; p < pairs; p++ {
		for _, t := range []*tracer{nil, tr} {
			rs, err := b.round(t, len(rounds))
			if err != nil {
				return nil, 0, err
			}
			rounds = append(rounds, rs)
			if t == nil {
				plain = append(plain, rs.wall.Seconds())
			} else {
				traced = append(traced, rs.wall.Seconds())
			}
		}
	}
	return rounds, (median(traced) - median(plain)) / median(plain), nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{".ns_per_instr", "ns/instr"}, {".ns_per_event", "ns/event"}, {".ns_per_kcycle", "ns/kcycle"},
		{".us_per_chunk", "us/chunk"}, {".kcycles_per_s", "kcycle/s"}, {".cells_per_unit", "cells/unit"}, {".ms", "ms"}, {".us", "us"},
		{".s", "s"}, {"_s", "s"}, {"_frac", "ratio"}, {"_ratio", "ratio"}, {"_peak", "bytes"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// sampleHeap samples the live heap (as marked by the latest garbage
// collection, so a sample does not depend on how much garbage it
// happens to catch) every 5 ms until the returned function is called,
// which returns the 95th percentile of the samples in MiB: the heap the
// program holds at its busiest, over the whole window. The maximum
// depends on which phase of the work the collections happen to fall
// in: over five sweep runs it read 120–140 MiB where the 95th
// percentile read 118.9–120.3.
func sampleHeap() func() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var vals []float64
	read := func() {
		metrics.Read(sample)
		vals = append(vals, float64(sample[0].Value.Uint64())/(1<<20))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		read()
		sort.Float64s(vals)
		return vals[(len(vals)-1)*95/100]
	}
}

func printReport(w io.Writer, rec *record) {
	h := rec.Host
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g traced=%v rounds=%d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Rounds)
	fmt.Fprintf(w, "host: cpu=%q num_cpu=%d gomaxprocs=%d affinity=%s go=%s commit=%s\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.Affinity, h.GoVersion, h.Commit)
	if len(rec.Report) > 0 {
		fmt.Fprintf(w, "%-20s %-6s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
		for _, s := range rec.Report {
			fmt.Fprintf(w, "%-20s %-6s %14.6g %14.6g %14.6g %4d\n", s.Name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
	}
	var tails []string
	for k := range rec.Tails {
		tails = append(tails, k)
	}
	sort.Strings(tails)
	for _, k := range tails {
		t := rec.Tails[k]
		fmt.Fprintf(w, "%-20s %-6s %14.6g  (%s)\n", k, "ms", t.Value, t)
	}
	if len(rec.Layers) > 0 {
		fmt.Fprintf(w, "%-34s %6s %12s %12s %12s\n", "span", "count", "total_s", "self_s", "median_ms")
		for _, l := range rec.Layers {
			fmt.Fprintf(w, "%-34s %6d %12.6f %12.6f %12.6f\n", l.Name, l.Count, l.TotalS, l.SelfS, l.medianMS())
		}
		var names []string
		for k := range rec.Result.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := rec.Result.Metrics[k]
			fmt.Fprintf(w, "%-40s %-10s %14.6g\n", k, m.Unit, m.Value)
		}
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	fmt.Fprintf(w, "checks: attempted=%d failed=%d correct=%v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
