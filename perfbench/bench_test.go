package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"paco/internal/campaign"
	"paco/internal/session"
	"paco/internal/trace"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check the
// program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyOpts(workload string, traced bool) opts {
	return opts{workload: workload, seed: 3, seconds: 0.001, trace: traced, clients: 2, tiny: true}
}

// checkMetrics requires the result's metric names and units to be
// exactly the listed ones.
func checkMetrics(t *testing.T, got map[string]metricOut, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	var extra []string
	for k := range got {
		if !names[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("metrics not in BENCHMARK.json: %v", extra)
	}
}

func TestEveryWorkloadEmitsEndToEndMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rec, err := measure(tinyOpts(w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 {
				t.Fatalf("checks failed: %v", rec.Failures)
			}
			checkMetrics(t, rec.Result.Metrics, bf.EndToEnd)
			for name, m := range rec.Result.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	rec, err := measure(tinyOpts("sessions", true))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Result.Correct {
		t.Fatalf("checks failed: %v", rec.Failures)
	}
	checkMetrics(t, rec.Result.Metrics, bf.PerLayer)
}

func TestReproCheckCatchesCorruptReport(t *testing.T) {
	ref := []byte("==================== fig2 ====================\nbucket 0  0.0312\n")
	good := [][]byte{append([]byte(nil), ref...), append([]byte(nil), ref...)}
	if bad := checkReproReports(good, ref); len(bad) != 0 {
		t.Fatalf("identical reports flagged: %v", bad)
	}
	corrupt := append([]byte(nil), ref...)
	corrupt[len(corrupt)-2] = '3'
	if bad := checkReproReports([][]byte{ref, corrupt}, ref); len(bad) != 1 {
		t.Fatalf("corrupted report: %d mismatches, want 1", len(bad))
	}
}

// tinyGrid is a two-stream, four-cell sweep small enough for tests.
func tinyGrid() campaign.Grid {
	return campaign.Grid{Benchmarks: []string{"gzip", "mcf"}, Instructions: 3_000, Warmup: 1_000,
		Refresh: []uint64{20_000}, ProbGates: []float64{0.2, 0.5}, Seed: 11}
}

// serverStyleResults runs the grid batched, as the server does, and
// renders the results as GET /v1/jobs/{id}/results does.
func serverStyleResults(t *testing.T, g campaign.Grid) []byte {
	t.Helper()
	n, err := g.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	r := campaign.Runner{Workers: 2, BatchK: campaign.DefaultBatchK}
	res, err := r.Run(context.Background(), n.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := campaign.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSweepChecksCatchCorruptResults(t *testing.T) {
	g := tinyGrid()
	miss := serverStyleResults(t, g)
	if err := checkSweepHit(append([]byte(nil), miss...), miss); err != nil {
		t.Fatalf("equal hit flagged: %v", err)
	}
	hit := bytes.Replace(miss, []byte(`"cycles":`), []byte(`"cycles":1`), 1)
	if err := checkSweepHit(hit, miss); err == nil {
		t.Fatal("corrupted hit bytes passed")
	}

	for pick := 0; pick < 4; pick++ {
		if err := checkSweepCell(sweepSample{grid: g, results: miss, pick: pick}); err != nil {
			t.Fatalf("cell %d of a correct result flagged: %v", pick, err)
		}
	}
	res, err := campaign.ReadJSON(bytes.NewReader(miss))
	if err != nil {
		t.Fatal(err)
	}
	res[2].Stats.RetiredGood++
	var buf bytes.Buffer
	if err := campaign.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if err := checkSweepCell(sweepSample{grid: g, results: buf.Bytes(), pick: 2}); err == nil {
		t.Fatal("corrupted cell passed")
	}
}

func TestSessionCheckCatchesCorruptFinal(t *testing.T) {
	raw, err := recordStream(5, 1_500)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := session.ParseEstimators(estimatorList, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := replayFinal(raw, spec)
	if err != nil {
		t.Fatal(err)
	}
	// An independent path: the events applied one at a time to a live
	// session, rendered as the server renders its DELETE body.
	evs, err := readEvents(raw)
	if err != nil {
		t.Fatal(err)
	}
	s, err := session.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	got, err := json.MarshalIndent(s.Close(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if err := checkSessionFinal(got, want); err != nil {
		t.Fatalf("live session flagged: %v", err)
	}
	// Drop one event: the final must no longer match.
	var enc bytes.Buffer
	w, err := trace.NewWriter(&enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs[:len(evs)-1] {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	corrupt, err := replayFinal(enc.Bytes(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSessionFinal(corrupt, want); err == nil {
		t.Fatal("final of a truncated stream passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	tl := tailOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	if tl.Value != 10 || tl.Percentile != 50 || tl.Max {
		t.Fatalf("tail = %+v, want the 50th percentile, 10", tl)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "child", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "child", ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps the first
		{Name: "child", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
	}
	st := summarize(spans)
	if got := st["parent"].SelfS * 1e9; got < 39.5 || got > 40.5 {
		t.Fatalf("parent self = %vns, want 40ns", got)
	}
}
