package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro"
	"repro/internal/blast"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataformat"
	"repro/internal/graph"
	"repro/internal/planopt"
	"repro/internal/powerlyra"
)

// The three batch workloads run one whole partitioning job per op on
// cluster.DefaultConfig(4) = 8 ranks into 32 partitions.
const (
	batchNodes      = 4
	batchPartitions = 32
	hybridThreshold = 100
)

// compilePlan compiles an embedded workflow against its embedded input
// description, the way papar does from the two files.
func compilePlan(inputCfg, workflowCfg string, args map[string]string) (*core.Plan, error) {
	f := core.NewFramework()
	if _, err := f.RegisterInputConfig(repro.Config(inputCfg)); err != nil {
		return nil, err
	}
	return f.CompileWorkflowConfig(repro.Config(workflowCfg), args)
}

// spreadRows splits rows into n contiguous chunks: the input splitter's
// placement, and the one papard uses for resident datasets.
func spreadRows(rows []core.Row, n int) [][]core.Row {
	out := make([][]core.Row, n)
	for i := range out {
		out[i] = rows[len(rows)*i/n : len(rows)*(i+1)/n]
	}
	return out
}

// ingest reads the plan's input file into per-rank rows exactly as
// core.prepareLocals does; the traced pass times it as a span of its own.
func ingest(plan *core.Plan, path string, ranks int) ([][]core.Row, error) {
	splits, err := dataformat.Splits(plan.InputSchema, path, ranks)
	if err != nil {
		return nil, err
	}
	locals := make([][]core.Row, ranks)
	for i, sp := range splits {
		var rows []core.Row
		err := dataformat.StreamSplit(plan.InputSchema, sp, func(rec dataformat.Record) error {
			rows = append(rows, core.Row{Values: append([]dataformat.Value(nil), rec.Values...)})
			return nil
		})
		if err != nil {
			return nil, err
		}
		locals[i] = rows
	}
	return locals, nil
}

// dirBytes sums the sizes of the files directly under dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// batchInst is a batch workload after set-up.
type batchInst struct {
	e    *env
	kind string
	plan *core.Plan
	cl   *cluster.Cluster
	// Exactly one of inputPath and locals is the op's input.
	inputPath  string
	inputBytes int64
	locals     [][]core.Row
	rows       int
	// refDir, when set, is the reference part-NNNNN tree: the op writes its
	// partitions and the first and last trees are byte-compared against it.
	refDir   string
	refBytes int64
	// want is the reference partitioner's fingerprint. The hybrid-cut
	// reference fixes each partition's edge multiset but not the order
	// inside it, so there ordered is pinned to the first op's instead.
	want         fingerprint
	orderedKnown bool

	// literal recompiles the plan from its configs, for the probes.
	literal   func() (*core.Plan, error)
	optimized bool

	res    *core.Result // the last op's result, dropped by verify
	outDir string       // the last op's output tree, kept for finish
}

func (b *batchInst) instance() *instance {
	return &instance{
		segment:      b.segment,
		verify:       b.verify,
		finish:       b.finish,
		close:        func() { os.RemoveAll(b.outDir) },
		warmSegments: 3,
		probe: &probeSet{
			plan: b.plan, cl: b.cl, inputPath: b.inputPath, locals: b.locals,
			literal: b.literal, optimized: b.optimized,
		},
	}
}

// segment is one op: what papar does per run. Untraced it is the library's
// one call (plus the partition write); traced, ingest is pulled out of that
// call with the same code so that ingest, execute and write are three
// sibling spans.
func (b *batchInst) segment(i int, tr *tracer, scale float64) (*segment, error) {
	out := filepath.Join(b.e.work, "out-"+strconv.Itoa(i))
	root := tr.begin("op", i, -1, 0, scale)
	t0 := time.Now()
	in := core.Input{Path: b.inputPath, LocalRows: b.locals}
	if tr != nil && b.inputPath != "" {
		id := tr.begin("dataformat.ingest", i, root, 0, scale)
		locals, err := ingest(b.plan, b.inputPath, b.cl.Size())
		tr.end(id, int64(b.rows), b.inputBytes)
		if err != nil {
			return nil, err
		}
		in = core.Input{LocalRows: locals}
	}
	id := tr.begin("core.execute", i, root, 0, scale)
	res, err := core.ExecuteOpts(b.cl, b.plan, in, core.ExecOptions{})
	tr.end(id, int64(b.rows), 0)
	if err != nil {
		return nil, err
	}
	if b.refDir != "" {
		id := tr.begin("core.write", i, root, 0, scale)
		err := core.WritePartitions(b.plan, res, out)
		tr.end(id, int64(b.rows), b.refBytes)
		if err != nil {
			return nil, err
		}
	}
	wall := time.Since(t0)
	tr.end(root, int64(b.rows), 0)

	if b.outDir != "" && b.outDir != out {
		os.RemoveAll(b.outDir)
	}
	b.res, b.outDir = res, out
	return &segment{wall: wall, ops: []opSample{{
		kind: b.kind, wall: wall, rows: b.rows, virtNS: int64(res.Makespan),
	}}}, nil
}

func (b *batchInst) verify(i int, seg *segment, corrupt bool) {
	res := b.res
	b.res = nil
	if corrupt {
		// Move one row to the neighbouring partition.
		p := res.Partitions
		p[1] = append(p[1], p[0][0])
		p[0] = p[0][1:]
	}
	op := &seg.ops[0]
	got := fingerprintParts(res.Partitions)
	switch {
	case got.rows != b.want.rows:
		op.err = fmt.Errorf("%s op %d: %d rows out, reference has %d", b.kind, i, got.rows, b.want.rows)
	case got.multiset != b.want.multiset:
		op.err = fmt.Errorf("%s op %d: partition contents differ from the reference partitioner", b.kind, i)
	case !b.orderedKnown:
		b.want.ordered, b.orderedKnown = got.ordered, true
	case got.ordered != b.want.ordered:
		op.err = fmt.Errorf("%s op %d: row order inside partitions differs from the reference", b.kind, i)
	}
	// The written tree is byte-compared on the warm-up ops and the first
	// measured one; finish compares the last.
	if op.err == nil && b.refDir != "" && i <= 0 {
		op.err = compareTrees(b.outDir, b.refDir)
	}
}

// finish byte-compares the last op's tree and removes it.
func (b *batchInst) finish() error {
	if b.refDir == "" || b.outDir == "" {
		return nil
	}
	defer os.RemoveAll(b.outDir)
	return compareTrees(b.outDir, b.refDir)
}

// newBlastInst is the shared set-up of the two file workloads: generate the
// env_nr twin, write it in the Fig. 4 format, and keep what muBLASTP's own
// partitioner makes of it as the reference.
func newBlastInst(e *env, kind string, scale float64, workflowCfg string, sorts bool, ref func([]blast.IndexEntry, int) []blast.Partition) (*batchInst, error) {
	db := blast.Generate(blast.EnvNR(), scale*sizeJitter(e.cfg.seed)/e.scaleDiv(), e.cfg.seed)
	path := filepath.Join(e.work, "in.db")
	if err := blast.WriteDB(db, path); err != nil {
		return nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	np := strconv.Itoa(batchPartitions)
	literal := func() (*core.Plan, error) {
		args := map[string]string{"input_path": path, "output_path": filepath.Join(e.work, "out"), "num_partitions": np}
		if sorts {
			args["num_reducers"] = np
		}
		return compilePlan("blast_db.xml", workflowCfg, args)
	}
	plan, err := literal()
	if err != nil {
		return nil, err
	}
	parts := ref(db.Entries, batchPartitions)
	refDir := filepath.Join(e.work, "ref")
	if err := writeRefTree(refDir, parts); err != nil {
		return nil, err
	}
	return &batchInst{
		e: e, kind: kind, plan: plan, literal: literal, cl: cluster.New(cluster.DefaultConfig(batchNodes)),
		inputPath: path, inputBytes: info.Size(), rows: len(db.Entries),
		refDir: refDir, refBytes: dirBytes(refDir),
		want: fingerprintParts(blastRows(parts)), orderedKnown: true,
	}, nil
}

// blast_file_sort: the literal blast_partition plan (sort by seq_size, deal
// cyclically) from the input file to a fresh partition tree.
func setupBlastFileSort(e *env) (*instance, error) {
	b, err := newBlastInst(e, "blast_file_sort", 0.05, "blast_partition.xml", true, blast.CyclicPartition)
	if err != nil {
		return nil, err
	}
	return b.instance(), nil
}

// block_file_elided: blast_partition_block through planopt, which elides
// the shuffle, so the op is almost only ingest and write.
func setupBlockFileElided(e *env) (*instance, error) {
	b, err := newBlastInst(e, "block_file_elided", 0.15, "blast_partition_block.xml", false, blast.BlockPartition)
	if err != nil {
		return nil, err
	}
	stats, err := planopt.CollectStatsFromFile(b.plan, b.inputPath, e.cfg.seed)
	if err != nil {
		return nil, err
	}
	rw, err := planopt.Optimize(b.plan, planopt.Options{Ranks: b.cl.Size(), Stats: stats})
	if err != nil {
		return nil, err
	}
	b.plan, b.optimized = rw.After, true
	return b.instance(), nil
}

// hybrid_mem_opt: hybrid_cut on resident rows after planopt, checked against
// PowerLyra's own hybrid-cut.
func setupHybridMemOpt(e *env) (*instance, error) {
	g := graph.Generate(graph.LiveJournal(), 0.006*sizeJitter(e.cfg.seed)/e.scaleDiv(), e.cfg.seed)
	literal := func() (*core.Plan, error) {
		return compilePlan("graph_edge.xml", "hybrid_cut.xml", map[string]string{
			"input_file": "mem://in", "output_path": "mem://out",
			"num_partitions": strconv.Itoa(batchPartitions), "threshold": strconv.Itoa(hybridThreshold),
		})
	}
	plan, err := literal()
	if err != nil {
		return nil, err
	}
	cl := cluster.New(cluster.DefaultConfig(batchNodes))
	locals := spreadRows(core.RecordsToRows(graph.EdgesToRows(g.Edges)), cl.Size())
	stats, err := planopt.CollectStats(plan, locals, e.cfg.seed)
	if err != nil {
		return nil, err
	}
	rw, err := planopt.Optimize(plan, planopt.Options{Ranks: cl.Size(), Stats: stats})
	if err != nil {
		return nil, err
	}
	asg, err := powerlyra.Partition(g, powerlyra.HybridCut, batchPartitions, hybridThreshold)
	if err != nil {
		return nil, err
	}
	b := &batchInst{
		e: e, kind: "hybrid_mem_opt", plan: rw.After, literal: literal, optimized: true, cl: cl,
		locals: locals, rows: len(g.Edges),
		want: fingerprintParts(edgeRows(asg.PartitionEdges())),
	}
	return b.instance(), nil
}
