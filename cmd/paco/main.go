// Command paco regenerates any single table or figure from the paper's
// evaluation, or all of them into one report.
//
// Usage:
//
//	paco <experiment> [flags]
//	paco all [flags] > report.txt
//	paco list
//
// Experiments: fig2 fig3a fig3b table7 fig8 fig9 fig10 fig12 tableA1.
// `paco all` runs them in that (the paper's) order, each under a
// "==== name ====" banner, and writes per-experiment timings to stderr
// only, so the report on stdout is byte-identical at any -j.
//
// The default configuration runs each benchmark for 2M measured
// instructions after a 400k warmup; -quick selects a small configuration,
// -instructions/-warmup override.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"paco/internal/experiments"
	"paco/internal/perf"
	"paco/internal/version"
)

func main() {
	fs := flag.NewFlagSet("paco", flag.ExitOnError)
	quick := fs.Bool("quick", false, "use the small test-scale configuration")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "simulation worker pool size")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to a file")
	memprofile := fs.String("memprofile", "", "write a heap profile to a file")
	instructions := fs.Uint64("instructions", 0, "measured instructions per benchmark run (0 = config default)")
	warmup := fs.Uint64("warmup", 0, "warmup instructions per run (0 = config default)")
	refresh := fs.Uint64("refresh", 0, "PaCo MRT refresh period in cycles (0 = config default)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paco <experiment>|all [flags]\n\nexperiments:\n")
		for _, n := range experiments.Names() {
			fmt.Fprintf(os.Stderr, "  %s\n", n)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	if len(os.Args) < 2 {
		fs.Usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "list" {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	if name == "-version" || name == "--version" {
		version.Fprint(os.Stdout, "paco")
		return
	}
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *instructions != 0 {
		cfg.Instructions = *instructions
	}
	if *warmup != 0 {
		cfg.Warmup = *warmup
	}
	if *refresh != 0 {
		cfg.RefreshPeriod = *refresh
	}
	cfg.Workers = *jobs
	start := time.Now()
	err := perf.WithProfiles(*cpuprofile, *memprofile, func() error {
		if name == "all" {
			return runAll(cfg, os.Stdout)
		}
		return experiments.Run(name, cfg, os.Stdout)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "paco:", err)
		os.Exit(1)
	}
	if name == "all" {
		fmt.Fprintf(os.Stderr, "[total: %v at -j %d]\n", time.Since(start).Round(time.Millisecond), cfg.Workers)
		return
	}
	fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
}

// runAll writes the paper's whole evaluation to w, one banner-delimited
// section per experiment in paper order. Timings go to stderr: they vary
// run to run, and the report must stay byte-identical at any -j.
func runAll(cfg experiments.Config, w io.Writer) error {
	for _, name := range experiments.Paper {
		start := time.Now()
		fmt.Fprintf(w, "==================== %s ====================\n", name)
		if err := experiments.Run(name, cfg, w); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(os.Stderr, "[%s: %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
