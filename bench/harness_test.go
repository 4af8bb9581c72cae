package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := iqrShare([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("iqrShare = %g, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(lo, hi int) (time.Duration, time.Duration) {
		return time.Duration(lo) * time.Millisecond, time.Duration(hi) * time.Millisecond
	}
	mk := func(parent, lo, hi int) span {
		s := span{parent: parent}
		s.start, s.end = at(lo, hi)
		return s
	}
	spans := []span{
		mk(-1, 0, 100), // 0: root
		mk(0, 10, 30),  // 1: child
		mk(0, 20, 50),  // 2: child overlapping 1: the union 10..50 counts once
		mk(0, 90, 120), // 3: child running past its parent is clipped to 90..100
		mk(2, 25, 45),  // 4: grandchild: comes off span 2 only
	}
	want := []int{50, 20, 10, 30, 20}
	for i, got := range selfTimes(spans) {
		if got != time.Duration(want[i])*time.Millisecond {
			t.Errorf("self time of span %d = %v, want %dms", i, got, want[i])
		}
	}
}

func TestNormalisationAbsorbsDrift(t *testing.T) {
	// Forty ops that take 300 ms at reference speed; halfway through the
	// machine slows by 20%, which the kernel run before each op sees too.
	var recs []segRecord
	for i := 0; i < 40; i++ {
		speed := 1.0
		if i >= 20 {
			speed = 1.2
		}
		wobble := 1 + 0.004*float64(i%5-2)
		cal := time.Duration(calRefMS * speed * float64(time.Millisecond))
		wall := time.Duration(300 * speed * wobble * float64(time.Millisecond))
		recs = append(recs, segRecord{cal: cal, scale: calScale(cal), wall: wall,
			ops: []opSample{{wall: wall, rows: 1000}}})
	}
	s := summarise(recs, false)
	if got := median(s.opNormMS); math.Abs(got-300)/300 > 0.01 {
		t.Errorf("normalised median = %.2f ms, want 300 within 1%%", got)
	}
	if got := median(s.opRawMS); math.Abs(got-300)/300 < 0.05 {
		t.Errorf("raw median = %.2f ms: the synthetic drift should have moved it", got)
	}
	if got, want := float64(s.rows)/s.normWallS, 1000/0.3; math.Abs(got-want)/want > 0.01 {
		t.Errorf("normalised rows/s = %.1f, want %.1f within 1%%", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"op_ms_p50", "ms", "lower", 0.10}
	higher := metricDef{"rows_per_s", "1/s", "higher", 0.10}
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 85, 118, 90, 112, 95, 108, 100, 102}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"faster on every pair, beyond A's spread", lower, base, scaled(0.8), "improved"},
		{"higher is better and B is higher", higher, base, scaled(1.2), "improved"},
		{"same distribution", lower, base, append(base[1:], base[0]), "within bound"},
		{"worse, but by less than the bound", lower, base, scaled(1.05), "within bound"},
		{"worse by more than the bound", lower, base, scaled(1.2), "regressed"},
		{"higher is better and B is lower", higher, base, scaled(0.8), "regressed"},
		{"spread wider than the bound", lower, noisy, append(noisy[3:], noisy[:3]...), "unresolved"},
		{"better by less than the noise: no claim", lower, noisy, scaled(0.97), "unresolved"},
	} {
		v := judge("w", c.def, c.a, c.b)
		if v.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, v.verdict, c.want, v)
		}
	}
	v := judge("w", lower, base, scaled(0.8))
	if v.wins != 10 || v.losses != 0 || math.Abs(v.change+0.2) > 1e-9 {
		t.Errorf("pairs and change: %+v", v)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark has %d", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if got := b.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 7, seconds: 0, trace: trace, short: true,
		minSegments: 3, corruptSegment: -1, buildDir: t.TempDir(),
	}
}

// TestSmokeAllWorkloads runs every workload at 1/50 scale through set-up,
// warm-up, measurement and the correctness gate, and checks that what it
// reports is what BENCHMARK.json promises.
func TestSmokeAllWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		res, err := runWorkload(smokeConfig(t, w.name, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || res.attempted < 3 {
			t.Errorf("%s: %d attempted, %d failed: %v", w.name, res.attempted, res.failed, res.firstErr)
		}
		if len(res.metrics) != len(b.EndToEnd) {
			t.Fatalf("%s: %d end-to-end metrics reported, BENCHMARK.json lists %d", w.name, len(res.metrics), len(b.EndToEnd))
		}
		for i, m := range res.metrics {
			if m.name != b.EndToEnd[i].Name || m.unit != b.EndToEnd[i].Unit {
				t.Errorf("%s: metric %d is %s [%s], BENCHMARK.json says %s [%s]", w.name, i, m.name, m.unit, b.EndToEnd[i].Name, b.EndToEnd[i].Unit)
			}
			if !(m.value > 0) {
				t.Errorf("%s: %s = %g, want > 0", w.name, m.name, m.value)
			}
		}
	}
}

// TestSmokeTracedPass checks the traced pass on one batch workload and on
// papard: every per-layer metric of BENCHMARK.json, by name and unit.
func TestSmokeTracedPass(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, name := range []string{"blast_file_sort", "papard_small_mixed"} {
		cfg := smokeConfig(t, name, true)
		cfg.minSegments = 4
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", name, res.failed, res.attempted, res.firstErr)
		}
		got := map[string]string{}
		for _, m := range res.metrics {
			got[m.name] = m.unit
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				t.Errorf("%s: %s = %g", name, m.name, m.value)
			}
		}
		if len(got) != len(b.PerLayer) {
			t.Errorf("%s: %d per-layer metrics reported, BENCHMARK.json lists %d", name, len(got), len(b.PerLayer))
		}
		for _, d := range b.PerLayer {
			if unit, ok := got[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s: per-layer metric %s [%s] missing or in another unit (%q)", name, d.Name, d.Unit, unit)
			}
		}
		if _, err := os.Stat(cfg.buildDir + "/trace-" + name + ".json"); err != nil {
			t.Errorf("%s: no Chrome trace written: %v", name, err)
		}
	}
}

// TestCorruptedOutputFailsTheGate damages one op's output after the timed
// region: a row moved to the neighbouring partition for the batch workloads,
// one flipped checksum bit for papard. Exactly that op must fail.
func TestCorruptedOutputFailsTheGate(t *testing.T) {
	for _, name := range []string{"blast_file_sort", "hybrid_mem_opt", "papard_small_mixed"} {
		cfg := smokeConfig(t, name, false)
		cfg.corruptSegment = 1
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 1 || res.firstErr == nil {
			t.Errorf("%s: %d ops failed the gate, want exactly the corrupted one (%v)", name, res.failed, res.firstErr)
		}
	}
}

func TestCompareTreesSeesAByte(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	for _, dir := range []string{a, b} {
		if err := os.WriteFile(dir+"/part-00000", []byte("same bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := compareTrees(a, b); err != nil {
		t.Errorf("equal trees: %v", err)
	}
	if err := os.WriteFile(b+"/part-00000", []byte("same bytez"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareTrees(a, b); err == nil {
		t.Error("a differing byte went unnoticed")
	}
	if err := os.WriteFile(b+"/part-00001", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareTrees(a, b); err == nil {
		t.Error("an extra file went unnoticed")
	}
}
