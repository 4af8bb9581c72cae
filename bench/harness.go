package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// runConfig is one invocation of a workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// short shrinks every dataset and job count fifty-fold: the smoke run of
	// the unit tests. Its numbers mean nothing.
	short bool
	// minSegments is the least number of measured segments, whatever
	// seconds says (a slow machine still yields a median).
	minSegments int
	// corruptSegment, when >= 0, damages that measured segment's output
	// before the correctness gate sees it; the gate must then fail it. Only
	// the tests set it.
	corruptSegment int
	// buildDir holds everything a run leaves behind or needs for a while.
	buildDir string
}

// env is what every workload shares during a run.
type env struct {
	cfg   runConfig
	procs int
	cal   *calibrator
	work  string // scratch directory of this run, removed at exit
}

// scaleDiv is the dataset divisor of this run.
func (e *env) scaleDiv() float64 {
	if e.cfg.short {
		return 50
	}
	return 1
}

// sizeJitter moves a dataset's row count by up to a ten-thousandth with the
// seed, so that no two seeds produce bit-identical virtual times while the
// per-row metrics stay comparable.
func sizeJitter(seed int64) float64 {
	return 1 + (float64(mix64(uint64(seed))%201)-100)*1e-6
}

// opSample is one measured op: a whole partitioning run for the batch
// workloads, one job for papard.
type opSample struct {
	kind   string
	wall   time.Duration
	submit time.Duration // papard: the POST round trip
	rows   int
	virtNS int64
	err    error
}

// segment is the unit of drift normalisation: the reference kernel runs
// right before it with nothing in flight, and every wall time inside it is
// scaled by that one kernel reading.
type segment struct {
	wall time.Duration
	ops  []opSample
}

// instance is a workload after set-up.
type instance struct {
	// segment runs segment i: only the timed work. tr is nil on untraced
	// segments; scale is the segment's calibration factor, for its spans.
	segment func(i int, tr *tracer, scale float64) (*segment, error)
	// verify checks segment i's outputs outside any timed region and sets
	// err on each op that fails the correctness gate. With corrupt set it
	// first damages the output it is about to check; only the tests ask.
	verify func(i int, seg *segment, corrupt bool)
	// finish runs the checks that need the last op (may be nil).
	finish func() error
	// close releases servers and clusters.
	close func()
	// probe is what the layer probes of the traced pass work on.
	probe *probeSet
	// papard is set when the workload itself is the daemon; the service
	// probes then read its traced segments.
	papard *papardInst
	// warmSegments is the number of warm-up segments set-up runs.
	warmSegments int
}

// workloadDef is one row of the workload table.
type workloadDef struct {
	name  string
	why   string
	setup func(e *env) (*instance, error)
}

var workloads = []workloadDef{
	{"blast_file_sort", "paper Fig. 13 through every layer: file ingest, sort + cyclic shuffle, partition write", setupBlastFileSort},
	{"hybrid_mem_opt", "paper Fig. 15 on resident rows: group, KMV convert/reduce, split, vertex-cut; no file I/O, optimizer-fused plan", setupHybridMemOpt},
	{"block_file_elided", "same file layers, shuffle elided by planopt: ingest and write dominate; the bypass for codec/sort/shuffle changes", setupBlockFileElided},
	{"papard_small_mixed", "daemon closed loop: thousands of small jobs plus delta writes on resident clusters, where per-job fixed cost dominates", setupPapardSmallMixed},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setUp builds an instance and runs its warm-up segments through the
// correctness gate; everything it does counts as set-up time.
func setUp(e *env, w *workloadDef) (*instance, error) {
	inst, err := w.setup(e)
	if err != nil {
		return nil, err
	}
	for i := 0; i < inst.warmSegments; i++ {
		seg, err := inst.segment(-1-i, nil, 1)
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		inst.verify(-1-i, seg, false)
		for _, op := range seg.ops {
			if op.err != nil {
				inst.close()
				return nil, fmt.Errorf("warm-up: %w", op.err)
			}
		}
	}
	return inst, nil
}

// segRecord is a measured segment with everything read around it.
type segRecord struct {
	traced     bool
	cal        time.Duration
	scale      float64
	wall       time.Duration
	cpu        time.Duration
	ops        []opSample
	allocObjs  uint64
	allocBytes uint64
	gcCycles   uint64
}

// counters reads the runtime's allocation and GC-cycle counters into
// preallocated samples, so reading them allocates nothing.
type counters struct{ s [3]metrics.Sample }

func newCounters() *counters {
	c := &counters{}
	c.s[0].Name = "/gc/heap/allocs:objects"
	c.s[1].Name = "/gc/heap/allocs:bytes"
	c.s[2].Name = "/gc/cycles/total:gc-cycles"
	return c
}

func (c *counters) read() (objs, bytes, cycles uint64) {
	metrics.Read(c.s[:])
	return c.s[0].Value.Uint64(), c.s[1].Value.Uint64(), c.s[2].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set, in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runSegments measures segments until seconds have passed and at least
// minSegments are done. tracerFor chooses, per segment, whether it is traced.
func runSegments(e *env, inst *instance, tracerFor func(i int) *tracer) ([]segRecord, error) {
	cnt := newCounters()
	var recs []segRecord
	deadline := time.Now().Add(time.Duration(e.cfg.seconds * float64(time.Second)))
	for i := 0; i < e.cfg.minSegments || time.Now().Before(deadline); i++ {
		tr := tracerFor(i)
		cal := e.cal.run()
		scale := calScale(cal)
		cpu0 := cpuTime()
		o0, b0, g0 := cnt.read()
		seg, err := inst.segment(i, tr, scale)
		o1, b1, g1 := cnt.read()
		cpu1 := cpuTime()
		if err != nil {
			return recs, fmt.Errorf("segment %d: %w", i, err)
		}
		inst.verify(i, seg, i == e.cfg.corruptSegment)
		recs = append(recs, segRecord{
			traced: tr != nil, cal: cal, scale: scale, wall: seg.wall, cpu: cpu1 - cpu0,
			ops: seg.ops, allocObjs: o1 - o0, allocBytes: b1 - b0, gcCycles: g1 - g0,
		})
	}
	if inst.finish != nil {
		if err := inst.finish(); err != nil {
			// The last op's output failed the tree comparison.
			last := &recs[len(recs)-1]
			last.ops[len(last.ops)-1].err = err
		}
	}
	return recs, nil
}

// passSummary is what one set of segments (traced or untraced) measured.
type passSummary struct {
	attempted, failed        int
	firstErr                 error
	rows                     int64
	opNormMS, opRawMS, calMS []float64
	normWallS                float64
	cpu                      time.Duration
	allocObjs, allocBytes    uint64
	gcCycles                 uint64
	virtNS                   float64
}

func summarise(recs []segRecord, traced bool) passSummary {
	var s passSummary
	for _, r := range recs {
		if r.traced != traced {
			continue
		}
		s.calMS = append(s.calMS, ms(r.cal))
		s.normWallS += r.wall.Seconds() * r.scale
		s.cpu += r.cpu
		s.allocObjs += r.allocObjs
		s.allocBytes += r.allocBytes
		s.gcCycles += r.gcCycles
		for _, op := range r.ops {
			s.attempted++
			if op.err != nil {
				s.failed++
				if s.firstErr == nil {
					s.firstErr = op.err
				}
			}
			s.rows += int64(op.rows)
			s.opRawMS = append(s.opRawMS, ms(op.wall))
			s.opNormMS = append(s.opNormMS, ms(op.wall)*r.scale)
			s.virtNS += float64(op.virtNS)
		}
	}
	return s
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd derives the seven gated metrics from the untraced pass.
func endToEnd(s passSummary, setupS float64) []metric {
	rows := float64(max(s.rows, 1))
	return []metric{
		{"setup_s", setupS, "s"},
		{"op_ms_p50", median(s.opNormMS), "ms"},
		{"rows_per_s", rows / s.normWallS, "1/s"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
		{"allocs_per_row", float64(s.allocObjs) / rows, "1"},
		{"alloc_bytes_per_row", float64(s.allocBytes) / rows, "B"},
		{"virt_ms_per_op", s.virtNS / float64(max(s.attempted, 1)) / 1e6, "ms"},
	}
}

// hostMetrics are the raw, un-normalised companions of the gated metrics:
// drift shows here, a code change shows in both.
func hostMetrics(s passSummary, gcPause time.Duration, allOps int) []metric {
	tail := tailPercentile(len(s.opRawMS))
	return []metric{
		{"host.calib_ms_p50", median(s.calMS), "ms"},
		{"host.op_ms_p50_raw", median(s.opRawMS), "ms"},
		{"host.op_ms_tail_raw", percentile(s.opRawMS, tail), "ms"},
		{"host.op_tail_pctile", tail, "%"},
		{"host.cpu_ms_per_krow", ms(s.cpu) / (float64(max(s.rows, 1)) / 1e3), "ms"},
		{"host.gc_cycles_per_op", float64(s.gcCycles) / float64(max(s.attempted, 1)), "1"},
		{"host.gc_pause_ms_per_op", ms(gcPause) / float64(max(allOps, 1)), "ms"},
	}
}

// runResult is what one invocation reports.
type runResult struct {
	attempted, failed int
	firstErr          error
	metrics           []metric // the set the driver asked for (end-to-end or per-layer)
	extras            []metric // printed, not part of the contract line
}

// runWorkload sets the workload up, measures it and derives its metrics.
func runWorkload(cfg runConfig) (*runResult, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	work, err := os.MkdirTemp(cfg.buildDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{cfg: cfg, procs: procs, cal: newCalibrator(procs), work: work}
	defer e.cal.close()
	fmt.Printf("workload %s seed %d GOMAXPROCS %d trace %v\n", cfg.workload, cfg.seed, procs, cfg.trace)

	// Set-up time is the median of several whole set-ups, so that one slow
	// file write or page-cache miss does not decide it. The traced pass and
	// the smoke run do not report it and set up once.
	setups := 3
	if cfg.trace || cfg.short {
		setups = 1
	}
	var inst *instance
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if inst, err = setUp(e, w); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer func() { inst.close() }()
	// One collection drops the generators' garbage before the first op; none
	// is forced between ops (it made ops slower without narrowing the spread).
	runtime.GC()

	var tr *tracer
	tracerFor := func(int) *tracer { return nil }
	if cfg.trace {
		tr = newTracer()
		// Alternate untraced and traced segments, so that drift hits both
		// sides of the overhead comparison alike.
		tracerFor = func(i int) *tracer {
			if i%2 == 1 {
				return tr
			}
			return nil
		}
	}
	var gc0, gc1 debug.GCStats
	debug.ReadGCStats(&gc0)
	recs, err := runSegments(e, inst, tracerFor)
	if err != nil {
		return nil, err
	}
	debug.ReadGCStats(&gc1)

	plain := summarise(recs, false)
	res := &runResult{attempted: plain.attempted, failed: plain.failed, firstErr: plain.firstErr}
	if !cfg.trace {
		res.metrics = endToEnd(plain, median(setupTimes))
		res.extras = hostMetrics(plain, gc1.PauseTotal-gc0.PauseTotal, plain.attempted)
		return res, nil
	}
	traced := summarise(recs, true)
	res.attempted += traced.attempted
	res.failed += traced.failed
	if res.firstErr == nil {
		res.firstErr = traced.firstErr
	}
	lm, err := layerMetrics(e, inst, tr, recs, plain, traced)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	res.metrics = append(lm, hostMetrics(plain, gc1.PauseTotal-gc0.PauseTotal, plain.attempted+traced.attempted)...)
	out := filepath.Join(cfg.buildDir, "trace-"+cfg.workload+".json")
	if err := tr.writeChrome(out); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), out)
	return res, nil
}
