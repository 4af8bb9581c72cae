package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef is one row of BENCHMARK.json as the benchmark itself knows it;
// a unit test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the worsening that counts as a regression
}

// endToEndDefs are the gated metrics. Each bound is two to three times the
// widest spread (IQR / median) ten runs on ten seeds showed on a 2-core
// shared box; NOISE.md holds the numbers.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.20},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"allocs_per_row", "1", "lower", 0.01},
	{"alloc_bytes_per_row", "B", "lower", 0.04},
	{"virt_ms_per_op", "ms", "lower", 0.03},
}

// runRecord is one recorded run: every "metric" line it printed.
type runRecord struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

type runFile struct {
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

func readRunFile(path string) (*runFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values returns one metric of one workload over the file's runs, in run
// order (run i of A pairs with run i of B).
func (f *runFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// verdict is one workload x metric comparison, every ratio with its base.
type verdict struct {
	workload string
	def      metricDef
	a, b     [3]float64 // q1, median, q3
	// change is (median B - median A) / median A; worsening is the same in
	// the metric's bad direction.
	change, worsening float64
	spreadA, spreadB  float64 // IQR / median of each side's runs
	wins, losses, n   int     // pairs B won / lost, pairs run
	verdict           string
}

// judge applies choosing-metrics sections 6 and 8 to one metric of one
// workload. B improved on A only if it won nine tenths of the untied pairs
// and the medians differ by more than A's own interquartile distance. It
// regressed if its median is worse by more than the bound and that cannot be
// run-to-run spread (the spread is within the bound, or A wins by the same
// nine-tenths rule). Otherwise a spread wider than the bound leaves the
// metric unresolved, not unchanged.
func judge(workload string, def metricDef, a, b []float64) verdict {
	v := verdict{workload: workload, def: def, n: min(len(a), len(b))}
	v.a[0], v.a[1], v.a[2] = quartiles(a)
	v.b[0], v.b[1], v.b[2] = quartiles(b)
	if v.a[1] != 0 {
		v.change = (v.b[1] - v.a[1]) / math.Abs(v.a[1])
	}
	v.worsening = v.change
	if def.better == "higher" {
		v.worsening = -v.change
	}
	v.spreadA, v.spreadB = iqrShare(a), iqrShare(b)
	for i := 0; i < v.n; i++ {
		d := b[i] - a[i]
		if def.better == "higher" {
			d = -d
		}
		switch {
		case d < 0:
			v.wins++
		case d > 0:
			v.losses++
		}
	}
	decided := float64(v.wins + v.losses)
	beyondSpread := math.Abs(v.b[1]-v.a[1]) > v.a[2]-v.a[0]
	spread := math.Max(v.spreadA, v.spreadB)
	switch {
	case v.worsening < 0 && decided > 0 && float64(v.wins) >= 0.9*decided && beyondSpread:
		v.verdict = "improved"
	case v.worsening > def.bound && (spread <= def.bound || float64(v.losses) >= 0.9*decided && beyondSpread):
		v.verdict = "regressed"
	case spread > def.bound:
		v.verdict = "unresolved"
	default:
		v.verdict = "within bound"
	}
	return v
}

func compareRuns(a, b *runFile) []verdict {
	var out []verdict
	for _, w := range workloads {
		for _, def := range endToEndDefs {
			av, bv := a.values(w.name, def.name), b.values(w.name, def.name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			out = append(out, judge(w.name, def, av, bv))
		}
	}
	return out
}

// writeVerdicts prints one row per workload x metric.
func writeVerdicts(w io.Writer, vs []verdict) {
	fmt.Fprintln(w, "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | B vs A (base A) | spread A / B | pairs B won / lost / run | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	for _, v := range vs {
		fmt.Fprintf(w, "| %s | %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.3f%% of %.6g | %.3f%% / %.3f%% | %d / %d / %d | %.1f%% | %s |\n",
			v.workload, v.def.name, v.def.unit, v.a[1], v.a[0], v.a[2], v.b[1], v.b[0], v.b[2],
			100*v.change, v.a[1], 100*v.spreadA, 100*v.spreadB, v.wins, v.losses, v.n, 100*v.def.bound, v.verdict)
	}
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRunFile(pathA)
	if err != nil {
		return err
	}
	b, err := readRunFile(pathB)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("run length differs: %s measured %gs per run, %s %gs", pathA, a.Seconds, pathB, b.Seconds)
	}
	fmt.Fprintf(w, "A = %s, B = %s, %gs per run\n\n", pathA, pathB, a.Seconds)
	writeVerdicts(w, compareRuns(a, b))
	return nil
}

// recordSets runs every workload `runs` times for each of `sets` sets,
// interleaved (set 0, set 1, set 0, ...) so that machine drift hits all sets
// alike. Run r of every set uses seed cfg.seed+r. Each run is a fresh
// process of this binary, as the driver's runs are.
func recordSets(cfg runConfig, sets, runs int) ([]*runFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]*runFile, sets)
	for s := range out {
		out[s] = &runFile{Seconds: cfg.seconds}
	}
	for r := 0; r < runs; r++ {
		for s := 0; s < sets; s++ {
			for _, w := range workloads {
				seed := cfg.seed + int64(r)
				t0 := time.Now()
				cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-build-dir", cfg.buildDir)
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				rec := runRecord{Workload: w.name, Seed: seed, Metrics: map[string]float64{}}
				sc := bufio.NewScanner(&stdout)
				for sc.Scan() {
					if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "metric" {
						if v, err := strconv.ParseFloat(f[2], 64); err == nil {
							rec.Metrics[f[1]] = v
						}
					}
				}
				out[s].Runs = append(out[s].Runs, rec)
				fmt.Fprintf(os.Stderr, "set %d run %d %s: op_ms_p50 %.3f (%.1fs)\n", s, r, w.name, rec.Metrics["op_ms_p50"], time.Since(t0).Seconds())
			}
		}
	}
	return out, nil
}

func recordFile(cfg runConfig, path string, runs int) error {
	sets, err := recordSets(cfg, 1, runs)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(sets[0], "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// noiseReport measures the benchmark against itself: two interleaved sets of
// n runs of the same tree, compared by its own rules.
func noiseReport(cfg runConfig, n int, outPath string) error {
	sets, err := recordSets(cfg, 2, n)
	if err != nil {
		return err
	}
	a, b := sets[0], sets[1]
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# Run-to-run noise of this benchmark\n\n")
	fmt.Fprintf(&buf, "Written by `bash bench/run.sh -noise %d -seconds %g` (%s, %d cores, GOMAXPROCS %d): two\n", n, cfg.seconds, time.Now().UTC().Format("2006-01-02"), runtime.NumCPU(), min(runtime.NumCPU(), 4))
	fmt.Fprintf(&buf, "interleaved sets (A B A B ...) of %d runs of the same tree, run r of both sets on seed %d+r,\n", n, cfg.seed)
	fmt.Fprintf(&buf, "compared with the rules of `-compare`. Same code on both sides: every verdict should\n")
	fmt.Fprintf(&buf, "read \"within bound\", and the spread column is the evidence for each bound in BENCHMARK.json.\n\n")
	fmt.Fprintf(&buf, "## Raw against normalised op time\n\n")
	fmt.Fprintf(&buf, "Disagreement is |median B - median A| / median A of `op_ms_p50`; spread is IQR / median over\nthe %d runs of both sets together.\n\n", 2*n)
	fmt.Fprintln(&buf, "| workload | raw A | raw B | raw disagreement | raw spread | normalised A | normalised B | normalised disagreement | normalised spread |")
	fmt.Fprintln(&buf, "|---|---|---|---|---|---|---|---|---|")
	worse := 0
	for _, w := range workloads {
		rawA, rawB := a.values(w.name, "host.op_ms_p50_raw"), b.values(w.name, "host.op_ms_p50_raw")
		normA, normB := a.values(w.name, "op_ms_p50"), b.values(w.name, "op_ms_p50")
		dis := func(x, y []float64) float64 { return 100 * math.Abs(median(y)-median(x)) / median(x) }
		fmt.Fprintf(&buf, "| %s | %.3f ms | %.3f ms | %.2f%% | %.2f%% | %.3f ms | %.3f ms | %.2f%% | %.2f%% |\n", w.name,
			median(rawA), median(rawB), dis(rawA, rawB), 100*iqrShare(append(rawA, rawB...)),
			median(normA), median(normB), dis(normA, normB), 100*iqrShare(append(normA, normB...)))
		if dis(normA, normB) > dis(rawA, rawB) {
			worse++
		}
	}
	if worse > 0 {
		fmt.Fprintf(&buf, "\nNormalised disagreement is **above** raw on %d of %d workloads in this sample; the bounds below are\nset from the normalised spread as measured, not narrowed on the strength of the normalisation.\n", worse, len(workloads))
	} else {
		fmt.Fprintf(&buf, "\nNormalised disagreement is at or below raw on every workload.\n")
	}
	vs := compareRuns(a, b)
	fmt.Fprintf(&buf, "\n## The bounds and their evidence\n\n")
	fmt.Fprintf(&buf, "Widest spread is the largest IQR / median any workload showed in either set of %d runs. The driver\naccepts the benchmark only while every spread but `setup_s`'s stays within the bound.\n\n", n)
	fmt.Fprintln(&buf, "| metric | bound | widest spread | on | bound / spread | largest set-to-set disagreement of medians |")
	fmt.Fprintln(&buf, "|---|---|---|---|---|---|")
	for _, def := range endToEndDefs {
		var widest, disagree float64
		var on string
		for _, v := range vs {
			if v.def.name != def.name {
				continue
			}
			if s := math.Max(v.spreadA, v.spreadB); s > widest {
				widest, on = s, v.workload
			}
			disagree = math.Max(disagree, math.Abs(v.change))
		}
		fmt.Fprintf(&buf, "| %s | %.1f%% | %.3f%% | %s | %.1f | %.3f%% |\n", def.name, 100*def.bound, 100*widest, on, def.bound/widest, 100*disagree)
	}
	fmt.Fprintf(&buf, "\n## Every workload and end-to-end metric\n\n")
	writeVerdicts(&buf, vs)
	fmt.Fprintln(os.Stdout, buf.String())
	// The two run files stay in the build directory for a second look with -compare.
	for i, set := range sets {
		raw, err := json.Marshal(set)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(cfg.buildDir, fmt.Sprintf("noise-%c.json", 'A'+i)), raw, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(outPath, buf.Bytes(), 0o644)
}
