// Command bench is the repository's end-to-end benchmark: it runs one named
// workload against the partitioner's public functions, checks every op's
// output against the applications' own partitioners, and prints every metric
// by name with its unit. See README.md in this directory.
//
//	bash bench/run.sh --workload blast_file_sort --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -record A.json -runs 10     # all workloads, ten seeds
//	bash bench/run.sh -compare A.json B.json
//	bash bench/run.sh -noise 10                   # two interleaved sets + bench/NOISE.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg     runConfig
		trace   = flag.Int("trace", 0, "1 runs the traced pass, reports the per-layer metrics instead of the end-to-end ones, and writes trace-<workload>.json to the build directory")
		compare = flag.Bool("compare", false, "compare two recorded run files: -compare A.json B.json")
		noise   = flag.Int("noise", 0, "record two interleaved sets of N runs of this tree, compare them, and write NOISE.md next to the benchmark's sources")
		record  = flag.String("record", "", "record -runs runs of every workload into this file (input of -compare)")
		runs    = flag.Int("runs", 10, "runs per workload for -record")
		noiseTo = flag.String("noise-out", "bench/NOISE.md", "where -noise writes its report")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs; the program under test only ever sees the inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long to measure")
	flag.StringVar(&cfg.buildDir, "build-dir", ".bench_build", "directory for scratch files and traces")
	flag.Parse()
	cfg.trace = *trace != 0
	cfg.corruptSegment = -1
	cfg.minSegments = 5

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two run files")
			return 2
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *noise > 0:
		err = noiseReport(cfg, *noise, *noiseTo)
	case *record != "":
		err = recordFile(cfg, *record, *runs)
	default:
		return runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runOne runs one workload and prints its metrics, the contract's JSON
// object last. Any op failing the correctness gate makes the exit code 1.
func runOne(cfg runConfig) int {
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, m := range append(append([]metric(nil), res.metrics...), res.extras...) {
		fmt.Printf("metric %-34s %16.6f %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("ops: %d attempted, %d failed the correctness gate\n", res.attempted, res.failed)
	if res.firstErr != nil {
		fmt.Println("first failure:", res.firstErr)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(buf))
	if res.failed > 0 {
		return 1
	}
	return 0
}
