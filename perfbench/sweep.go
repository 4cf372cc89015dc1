package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"paco/internal/campaign"
	"paco/internal/scenario"
	"paco/internal/server"
	"paco/internal/workload"
)

// Per-round job mix of the sweep workload.
const (
	sweepBatchable   = 2 // one stream x 16 refresh/prob-gate cells: two full 8-lane units
	sweepUnbatchable = 2 // 8 fuzzed scenarios x one config: eight singleton units
	sweepRepeats     = 4 // respelled repeats of this round's specs: cache hits
	sweepSamples     = 12
)

// sweepBench is the sweep workload: an in-process paco-serve (local
// execution, default BatchK) behind a loopback HTTP listener, and
// GOMAXPROCS closed-loop clients that each submit POST /v1/jobs and
// wait for the result.
type sweepBench struct {
	o       opts
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	samples []sweepSample // miss results kept for the local re-run check
	last    []*sweepJob   // the latest traced round, for layer replays
	cacheD  server.CacheStats
}

// sweepJob is one submission and what came back.
type sweepJob struct {
	kind    string // batchable, unbatchable or repeat
	grid    campaign.Grid
	body    []byte
	of      int // repeat: index of the original in the round
	cells   int
	done    chan struct{}
	results []byte
	cache   string // the server's verdict: miss, hit or inflight
}

type sweepSample struct {
	grid    campaign.Grid
	results []byte
	pick    int // the sampled cell is pick mod the grid's size
}

// sweepDivisor scales the jobs down from the server's default size
// (600,000 instructions after a 200,000 warm-up, what the README's
// /v1/jobs quickstart runs): at full size a round takes 8 to 11 s on a
// 2-CPU host, so a 25 s run holds two or three rounds and its medians
// spread far beyond the bounds (perfbench/README.md).
const sweepDivisor = 4

// sweepSizes is the jobs' instruction and warm-up counts: the server's
// defaults divided by sweepDivisor, or much less at test scale.
func sweepSizes(o opts) (instrs, warmup uint64) {
	d, _ := campaign.Grid{Benchmarks: []string{"gzip"}}.Normalized()
	div := uint64(sweepDivisor)
	if o.tiny {
		div = 150
	}
	return d.Instructions / div, d.Warmup / div
}

// sweepGates is the batchable grids' gating axis: 16 cells of one
// stream, two full 8-lane units.
var sweepGates = []float64{0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}

// sweepJobs generates round r's jobs from the seed. Batchable grids
// rotate through the paper's benchmark models so every round costs
// about the same; the seed picks the workload seeds, the fuzzed
// scenarios and which specs are repeated.
func sweepJobs(o opts, r int) []*sweepJob {
	rng := rand.New(rand.NewPCG(o.seed, uint64(r)))
	instrs, warmup := sweepSizes(o)
	var jobs []*sweepJob
	add := func(kind string, g campaign.Grid, cells int) {
		body, _ := json.Marshal(g)
		jobs = append(jobs, &sweepJob{kind: kind, grid: g, body: body, cells: cells, done: make(chan struct{})})
	}
	for i := 0; i < sweepBatchable; i++ {
		name := workload.BenchmarkNames[(r*sweepBatchable+i)%len(workload.BenchmarkNames)]
		add("batchable", campaign.Grid{
			Benchmarks:   []string{name},
			Instructions: instrs, Warmup: warmup,
			ProbGates: sweepGates,
			Seed:      rng.Uint64() | 1,
		}, len(sweepGates))
	}
	for i := 0; i < sweepUnbatchable; i++ {
		add("unbatchable", campaign.Grid{
			Fuzz:         &scenario.FuzzSpec{Seed: rng.Uint64() | 1, Count: 8},
			Instructions: instrs, Warmup: warmup,
		}, 8)
	}
	n := len(jobs)
	for i := 0; i < sweepRepeats; i++ {
		of := (i + rng.IntN(n)) % n
		jobs = append(jobs, &sweepJob{kind: "repeat", grid: jobs[of].grid, body: respell(jobs[of].body),
			of: of, cells: jobs[of].cells, done: make(chan struct{})})
	}
	return jobs
}

// respell rewrites a job spec so it hashes to the same content address
// through a different spelling: keys sorted rather than in field order,
// indented, and every default the server would fill spelled out.
func respell(body []byte) []byte {
	var g campaign.Grid
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber() // seeds above 2^53 must survive the round trip
	if json.Unmarshal(body, &g) != nil || dec.Decode(&m) != nil {
		return body
	}
	n, err := g.Normalized()
	if err != nil {
		return body
	}
	for k, v := range map[string]any{"instructions": n.Instructions, "warmup": n.Warmup,
		"refresh": n.Refresh, "widths": n.Widths, "gate_count": n.GateCount} {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return body
	}
	return out
}

func newSweep(o opts) (bench, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	srv.Start()
	b := &sweepBench{o: o, srv: srv, ts: httptest.NewServer(srv.Handler())}
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * o.clients}}
	// One batchable job, a single 8-lane unit of the jobs' size, settles
	// the server's lazy set-up (first connections, worker goroutines,
	// batch lanes, heap growth) before anything is timed. Its simulation
	// dominates the set-up time, so setup_s tracks compute rather than
	// goroutine wake-up latency.
	instrs, warmup := sweepSizes(o)
	warm := &sweepJob{grid: campaign.Grid{Benchmarks: []string{"gzip"}, Instructions: instrs,
		Warmup: warmup, ProbGates: sweepGates[:8], Seed: o.seed | 1}}
	warm.body, _ = json.Marshal(warm.grid)
	if err := b.submit(nil, warm); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return b, nil
}

func (b *sweepBench) close() {
	b.client.CloseIdleConnections()
	b.ts.Close()
	b.srv.Close()
}

// drain reads a response body to the end and closes it, so its
// connection returns to the pool.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func (b *sweepBench) round(tr *tracer, idx int) (roundStats, error) {
	rs := newRound()
	jobs := sweepJobs(b.o, idx)
	before := b.srv.CacheStats()
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	missCells := 0
	start := time.Now()
	for c := 0; c < b.o.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				if j.kind == "repeat" {
					<-jobs[j.of].done
				}
				t0 := time.Now()
				err := b.submit(tr, j)
				d := ms(time.Since(t0))
				close(j.done)
				mu.Lock()
				rs.attempted++
				switch {
				case err != nil:
					rs.fail("sweep round %d job %d (%s): %v", idx, i, j.kind, err)
				case j.cache == "hit":
					rs.lat["hit"] = append(rs.lat["hit"], d)
				default:
					rs.lat["job"] = append(rs.lat["job"], d)
					missCells += j.cells
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rs.wall = time.Since(start)
	after := b.srv.CacheStats()
	b.cacheD = server.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}

	for i, j := range jobs {
		if j.kind != "repeat" || j.results == nil || jobs[j.of].results == nil {
			continue
		}
		err := checkSweepHit(j.results, jobs[j.of].results)
		if err == nil && j.cache != "hit" {
			err = fmt.Errorf("respelled repeat answered %q, want a cache hit", j.cache)
		}
		if err != nil {
			rs.fail("sweep round %d job %d: %v", idx, i, err)
		}
	}
	for i, j := range jobs {
		// The first batchable and the first unbatchable job of each
		// round are sampled, until sweepSamples are kept.
		if (i == 0 || i == sweepBatchable) && j.results != nil && len(b.samples) < sweepSamples {
			rng := rand.New(rand.NewPCG(b.o.seed, uint64(idx*len(jobs)+i)))
			b.samples = append(b.samples, sweepSample{grid: j.grid, results: j.results, pick: rng.IntN(1 << 20)})
		}
	}
	rs.vals["round_s"] = rs.wall.Seconds()
	rs.vals["cells_per_s"] = float64(missCells) / rs.wall.Seconds()
	if tr != nil {
		b.last = jobs
	}
	return rs, nil
}

// submit posts one job, waits for it to settle and fetches its results.
func (b *sweepBench) submit(tr *tracer, j *sweepJob) error {
	root := tr.begin("sweep", "sweep.job", 0)
	defer root.end()
	sp := tr.begin("sweep", "server.submit", root.ID())
	resp, err := b.client.Post(b.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		return err
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	drain(resp)
	sp.end()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	j.cache = st.Cache
	if resp.StatusCode == http.StatusAccepted {
		sp = tr.begin("sweep", "server.wait", root.ID())
		err := b.wait(st.ID)
		sp.end()
		if err != nil {
			return err
		}
	}
	sp = tr.begin("sweep", "server.result", root.ID())
	defer sp.end()
	resp, err = b.client.Get(b.ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		return err
	}
	defer drain(resp)
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("results: status %d: %s", resp.StatusCode, data)
	}
	j.results = data
	return nil
}

// wait follows the job's event stream until its terminal event.
func (b *sweepBench) wait(id string) error {
	resp, err := b.client.Get(b.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer drain(resp)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		switch sc.Text() {
		case "event: done":
			return nil
		case "event: failed":
			return fmt.Errorf("job %s failed", id)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended before a terminal event", id)
}

// checkSweepHit requires a cache hit's result bytes to equal the miss
// that filled the cache.
func checkSweepHit(hit, miss []byte) error {
	if !bytes.Equal(hit, miss) {
		return fmt.Errorf("cache-hit results differ from the miss that filled the cache (%d vs %d bytes)", len(hit), len(miss))
	}
	return nil
}

// checkSweepCell re-runs one sampled cell locally through campaign.Run
// (one worker, unbatched) and requires it to equal the server's cell.
func checkSweepCell(s sweepSample) error {
	g, err := s.grid.Normalized()
	if err != nil {
		return err
	}
	results, err := campaign.ReadJSON(bytes.NewReader(s.results))
	if err != nil {
		return fmt.Errorf("decoding server results: %w", err)
	}
	cell := s.pick % g.Size()
	if len(results) != g.Size() {
		return fmt.Errorf("server returned %d cells, want %d", len(results), g.Size())
	}
	local, err := campaign.Run(context.Background(), 1, []campaign.Job{g.Jobs()[cell]})
	if err != nil {
		return fmt.Errorf("local re-run: %w", err)
	}
	local[0].Index = cell
	want, _ := json.Marshal(local[0])
	got, _ := json.Marshal(results[cell])
	if !bytes.Equal(got, want) {
		return fmt.Errorf("cell %d differs from a local unbatched re-run:\n got %s\nwant %s", cell, got, want)
	}
	return nil
}

func (b *sweepBench) verify([]roundStats) (int, []string) {
	var bad []string
	for _, s := range b.samples {
		if err := checkSweepCell(s); err != nil {
			bad = append(bad, "sweep sampled cell: "+err.Error())
		}
	}
	n := len(b.samples)
	b.samples = nil
	return n, bad
}

// layers reads the server job path's split from the traced round's
// spans and replays the round's specs through canonicalization, the
// content-addressed cache and the batch planner.
func (b *sweepBench) layers(tr *tracer) (map[string]float64, error) {
	if b.last == nil {
		return nil, fmt.Errorf("no traced round")
	}
	st := summarize(tr.snapshot())
	m := map[string]float64{
		"server.submit.ms": st["server.submit"].medianMS(),
		"server.result.ms": st["server.result"].medianMS(),
		"cache.lookups":    float64(b.cacheD.Hits + b.cacheD.Misses),
	}
	m["cache.hit_ratio"] = float64(b.cacheD.Hits) / max(m["cache.lookups"], 1)

	// Canonicalization and cache lookups, in submission order: a miss
	// stores its result payload, a repeat finds it.
	cache, err := server.NewCache(0, "")
	if err != nil {
		return nil, err
	}
	var canonD, lookupD time.Duration
	var cells []campaign.Job
	for _, j := range b.last {
		// The server's content address: canonical JSON of the
		// normalized spec.
		var g campaign.Grid
		if err := json.Unmarshal(j.body, &g); err != nil {
			return nil, err
		}
		g, err := g.Normalized()
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("sweep.replay", "server.canonical", 0)
		start := time.Now()
		canon, err := server.CanonicalJSON(raw)
		canonD += time.Since(start)
		sp.end()
		if err != nil {
			return nil, err
		}
		key := server.Key([]byte("job"), canon)
		sp = tr.begin("sweep.replay", "cache.lookup", 0)
		start = time.Now()
		_, hit := cache.Get(key)
		lookupD += time.Since(start)
		sp.end()
		if !hit {
			cache.Put(key, j.results)
			cells = append(cells, g.Jobs()...)
		}
	}
	n := float64(len(b.last))
	m["server.canonical.us"] = float64(canonD.Nanoseconds()) / 1e3 / n
	m["cache.lookup.us"] = float64(lookupD.Nanoseconds()) / 1e3 / n

	sp := tr.begin("sweep.replay", "campaign.plan", 0)
	start := time.Now()
	units := campaign.PlanBatches(cells, campaign.DefaultBatchK)
	m["campaign.plan.us"] = float64(time.Since(start).Nanoseconds()) / 1e3
	sp.end()
	m["campaign.units"] = float64(len(units))
	m["campaign.cells_per_unit"] = float64(len(cells)) / float64(len(units))
	return m, nil
}
