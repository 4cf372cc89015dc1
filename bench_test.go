// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B benchmark per artifact. Each iteration runs
// the experiment at reduced scale and reports its headline numbers as
// custom metrics, so `go test -bench=. -benchmem` doubles as a smoke
// reproduction; use `paco <experiment>` or `paco all` (cmd/paco) for
// full-scale runs.
package paco

import (
	"testing"

	"paco/internal/experiments"
	"paco/internal/smt"
)

// benchConfig is sized so a single iteration of the heaviest benchmark
// stays in the seconds range.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Instructions = 250_000
	cfg.Warmup = 80_000
	cfg.GatingInstructions = 80_000
	cfg.GatingWarmup = 30_000
	cfg.SMTWarmupCycles = 15_000
	cfg.SMTMeasureCycles = 60_000
	return cfg
}

// BenchmarkFigure2 regenerates the per-MDC-bucket mispredict rates.
func BenchmarkFigure2(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure2(cfg, []string{"gcc", "vortex", "twolf"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Rate["twolf"][0], "twolf-mdc0-%")
		b.ReportMetric(f.Rate["vortex"][15], "vortex-mdc15-%")
	}
}

// BenchmarkFigure3a regenerates P(goodpath | counter==5) across
// benchmarks.
func BenchmarkFigure3a(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure3a(cfg, experiments.DefaultCounterProbe(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Label == "gzip" {
				b.ReportMetric(r.Goodpath, "gzip-%")
			}
			if r.Label == "vprRoute" {
				b.ReportMetric(r.Goodpath, "vprRoute-%")
			}
		}
	}
}

// BenchmarkFigure3b regenerates the same quantity across program phases.
func BenchmarkFigure3b(b *testing.B) {
	cfg := benchConfig()
	cfg.Instructions = 1_100_000 // cover both mcf phases
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure3b(cfg, experiments.DefaultCounterProbe())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Label == "mcf_phase1" {
				b.ReportMetric(r.Goodpath, "mcf-ph1-%")
			}
			if r.Label == "mcf_phase2" {
				b.ReportMetric(r.Goodpath, "mcf-ph2-%")
			}
		}
	}
}

// BenchmarkTable7 regenerates PaCo's RMS error study over all 12
// benchmarks.
func BenchmarkTable7(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t7, err := experiments.RunTable7(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t7.MeanRMS, "mean-RMS")
	}
}

// BenchmarkFigure8 regenerates parser's reliability diagram.
func BenchmarkFigure8(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t7, err := experiments.RunTable7(cfg, []string{"parser"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t7.Rows[0].RMS, "parser-RMS")
	}
}

// BenchmarkFigure9 regenerates the representative reliability diagrams and
// the cumulative curve.
func BenchmarkFigure9(b *testing.B) {
	cfg := benchConfig()
	subset := []string{"twolf", "vprRoute", "crafty", "gcc", "perlbmk"}
	for i := 0; i < b.N; i++ {
		t7, err := experiments.RunTable7(cfg, subset)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t7.Cumulative.RMSError(), "cumulative-RMS")
	}
}

// BenchmarkFigure10 regenerates the pipeline gating sweep (reduced design
// space: thresholds {3,15}, two gate-counts, two PaCo targets).
func BenchmarkFigure10(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure10(cfg, []string{"gzip", "bzip2", "twolf", "perlbmk"})
		if err != nil {
			b.Fatal(err)
		}
		if p, ok := f.Best("PaCo", 0.5); ok {
			b.ReportMetric(p.BadpathReduction, "paco-badpath-red-%")
		}
		if p, ok := f.Best("JRS-thr3", 0.5); ok {
			b.ReportMetric(p.BadpathReduction, "jrs3-badpath-red-%")
		}
	}
}

// BenchmarkFigure12 regenerates the SMT fetch prioritization comparison on
// a 4-pair subset.
func BenchmarkFigure12(b *testing.B) {
	cfg := benchConfig()
	pairs := []smt.Pair{
		{A: "gap", B: "mcf"}, {A: "gzip", B: "vprRoute"},
		{A: "bzip2", B: "crafty"}, {A: "perlbmk", B: "vortex"},
	}
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure12(cfg, pairs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Mean["PaCo"], "paco-HMWIPC")
		b.ReportMetric(f.Mean["JRS-thr3"], "jrs3-HMWIPC")
	}
}

// BenchmarkTableA1 regenerates the Appendix A variant comparison on a
// 3-benchmark subset.
func BenchmarkTableA1(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunTableA1(cfg, []string{"gzip", "twolf", "vortex"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Mean.DynamicMRT, "MRT-RMS")
		b.ReportMetric(a.Mean.StaticMRT, "staticMRT-RMS")
		b.ReportMetric(a.Mean.PerBranchMRT, "perbranch-RMS")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (instructions
// per wall second show up as the inverse of ns/op scaled by the run size).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(DefaultMachineConfig())
		if err != nil {
			b.Fatal(err)
		}
		spec, err := Benchmark("gzip")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.AddThread(spec, []Estimator{NewPaCo(PaCoConfig{})}); err != nil {
			b.Fatal(err)
		}
		m.Run(200_000, 0)
	}
}

// BenchmarkPredictorHotPath measures the cost of the PaCo fetch/resolve
// path itself — the per-branch overhead a host simulator pays.
func BenchmarkPredictorHotPath(b *testing.B) {
	p := NewPaCo(PaCoConfig{})
	ev := BranchEvent{PC: 0x1234, MDC: 3, Conditional: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := p.BranchFetched(ev)
		p.BranchResolved(c)
	}
}

// BenchmarkAblateRefresh measures accuracy sensitivity to the MRT refresh
// period (paper footnote 5).
func BenchmarkAblateRefresh(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblateRefresh(cfg, []uint64{50_000, 200_000}, []string{"gzip", "twolf"})
		if err != nil {
			b.Fatal(err)
		}
		_ = tbl
	}
}

// BenchmarkAblateThrottle compares all-or-nothing gating with selective
// throttling.
func BenchmarkAblateThrottle(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateThrottle(cfg, []string{"gzip", "twolf"}); err != nil {
			b.Fatal(err)
		}
	}
}
