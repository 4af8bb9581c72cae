package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/blast"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/incremental"
	"repro/internal/powerlyra"
	"repro/internal/service"
)

// papard_small_mixed drives the daemon's HTTP handler in a closed loop: each
// client sends its next job only after the previous one reached a terminal
// state. Jobs are dealt from a fixed cycle of eight; even positions go to
// client 0, odd ones to client 1, so the one delta job per cycle is always
// issued by client 0 and the resident engine sees one deterministic stream.
const (
	papardNodes       = 4
	papardWorkers     = 2
	papardPartitions  = 16 // the service's default num_partitions
	papardScale       = 0.001
	papardSegmentJobs = 100
)

type jobKind int

const (
	jobDelta jobKind = iota
	jobBlast
	jobBlock
	jobHybrid
	jobHybridPersist
)

var jobCycle = [8]jobKind{jobDelta, jobBlast, jobBlast, jobBlast, jobBlock, jobBlock, jobHybrid, jobHybridPersist}

var jobKindName = [...]string{"delta", "blast_partition", "blast_partition_block", "hybrid_cut", "hybrid_cut"}

// jobRecord is what a client saw of one job; verify reads it after the
// segment, outside the timed region.
type jobRecord struct {
	g      int // position in the global job sequence
	kind   jobKind
	delta  *service.DeltaSpec
	status service.Job
	err    error
}

type papardInst struct {
	e       *env
	srv     *service.Server
	ts      *httptest.Server
	clients []*http.Client
	segJobs int
	next    int // next position in the global job sequence

	blastDS, graphDS service.DatasetSpec
	// wantSum and rows are per partition-job kind: the checksum of a direct
	// core.Execute of the same spec (itself checked against the
	// application's own partitioner) and the dataset's row count.
	wantSum [5]uint64
	rows    [5]int
	// plans and inputs are what the direct runs used, kept for the
	// service-overhead probe (a bare run of the same spec on an idle cluster).
	plans  [5]*core.Plan
	inputs [5][][]core.Row
	cl     *cluster.Cluster

	// mirror replays the delta jobs on an engine the benchmark owns; after
	// every batch its partitions must equal what muBLASTP's cyclic
	// partitioner makes of its row sequence, and the daemon's checksum must
	// equal the one computed from the mirror's partitions.
	mirror *incremental.Engine
	pool   []core.Row

	pending []jobRecord
	probe   *probeSet
	journal string
}

func setupPapardSmallMixed(e *env) (*instance, error) {
	p, err := newPapard(e)
	if err != nil {
		return nil, err
	}
	return p.instance(), nil
}

func (p *papardInst) instance() *instance {
	return &instance{
		segment: p.segment, verify: p.verify, close: p.close,
		warmSegments: 1, probe: p.probe, papard: p,
	}
}

func newPapard(e *env) (*papardInst, error) {
	p := &papardInst{
		e:       e,
		segJobs: papardSegmentJobs,
		blastDS: service.DatasetSpec{Kind: "blast", Profile: "env_nr", Scale: papardScale, Seed: e.cfg.seed},
		graphDS: service.DatasetSpec{Kind: "graph", Profile: "google", Scale: papardScale, Seed: e.cfg.seed},
	}
	if e.cfg.short {
		p.segJobs = 16
	}
	np := fmt.Sprint(papardPartitions)
	ranks := 2 * papardNodes
	cl := cluster.New(cluster.DefaultConfig(papardNodes))
	p.cl = cl

	// What a direct run of each spec produces, and what the application's
	// own partitioner says it should be.
	db := blast.Generate(blast.EnvNR(), papardScale, e.cfg.seed)
	blastIn := core.RecordsToRows(db.Records())
	g := graph.Generate(graph.Google(), papardScale, e.cfg.seed)
	graphIn := core.RecordsToRows(graph.EdgesToRows(g.Edges))
	asg, err := powerlyra.Partition(g, powerlyra.HybridCut, papardPartitions, hybridThreshold)
	if err != nil {
		return nil, err
	}
	memArgs := func(inputArg string, extra map[string]string) map[string]string {
		args := map[string]string{inputArg: "mem://in", "output_path": "mem://out", "num_partitions": np}
		for k, v := range extra {
			args[k] = v
		}
		return args
	}
	for _, spec := range []struct {
		kind           jobKind
		input, wf, arg string
		extra          map[string]string
		in             []core.Row
		ref            fingerprint
		ordered        bool
	}{
		{jobBlast, "blast_db.xml", "blast_partition.xml", "input_path", map[string]string{"num_reducers": np}, blastIn,
			fingerprintParts(blastRows(blast.CyclicPartition(db.Entries, papardPartitions))), true},
		{jobBlock, "blast_db.xml", "blast_partition_block.xml", "input_path", nil, blastIn,
			fingerprintParts(blastRows(blast.BlockPartition(db.Entries, papardPartitions))), true},
		{jobHybrid, "graph_edge.xml", "hybrid_cut.xml", "input_file", map[string]string{"threshold": fmt.Sprint(hybridThreshold)}, graphIn,
			fingerprintParts(edgeRows(asg.PartitionEdges())), false},
	} {
		plan, err := compilePlan(spec.input, spec.wf, memArgs(spec.arg, spec.extra))
		if err != nil {
			return nil, err
		}
		p.plans[spec.kind], p.inputs[spec.kind] = plan, spreadRows(spec.in, ranks)
		res, err := core.Execute(cl, plan, core.Input{LocalRows: p.inputs[spec.kind]})
		if err != nil {
			return nil, err
		}
		got := fingerprintParts(res.Partitions)
		if got.rows != spec.ref.rows || got.multiset != spec.ref.multiset || spec.ordered && got.ordered != spec.ref.ordered {
			return nil, fmt.Errorf("direct run of %s differs from the reference partitioner", spec.wf)
		}
		p.wantSum[spec.kind], p.rows[spec.kind] = serviceChecksum(res.Partitions), len(spec.in)
	}
	p.wantSum[jobHybridPersist], p.rows[jobHybridPersist] = p.wantSum[jobHybrid], p.rows[jobHybrid]
	p.plans[jobHybridPersist], p.inputs[jobHybridPersist] = p.plans[jobHybrid], p.inputs[jobHybrid]
	sortPlan := p.plans[jobBlast]

	p.pool = blastIn
	if p.mirror, err = incremental.New(incremental.Config{Plan: sortPlan, Cluster: cl}, blastIn); err != nil {
		return nil, err
	}
	p.probe = &probeSet{
		plan: sortPlan, cl: cl, locals: p.inputs[jobBlast],
		literal: func() (*core.Plan, error) {
			return compilePlan("blast_db.xml", "blast_partition.xml", memArgs("input_path", map[string]string{"num_reducers": np}))
		},
	}

	dataDir, err := os.MkdirTemp(e.work, "papard-")
	if err != nil {
		return nil, err
	}
	p.journal = filepath.Join(dataDir, "journal.pjl")
	p.srv, err = service.New(service.Config{Nodes: papardNodes, Workers: papardWorkers, DataDir: dataDir, JournalSync: false})
	if err != nil {
		return nil, err
	}
	p.srv.Start()
	p.ts = httptest.NewServer(p.srv.Handler())
	// No more load-generating connections than cores.
	for c := 0; c < min(2, e.procs); c++ {
		p.clients = append(p.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return p, nil
}

func (p *papardInst) close() {
	p.ts.Close()
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
	if err := p.srv.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: papard drain:", err)
	}
}

// spec builds the g-th job of the global sequence.
func (p *papardInst) spec(g int) (jobKind, service.JobSpec) {
	kind := jobCycle[g%len(jobCycle)]
	spec := service.JobSpec{Workflow: jobKindName[kind], Dataset: p.blastDS}
	switch kind {
	case jobDelta:
		spec.Kind, spec.Workflow = "delta", "blast_partition"
		spec.Delta = &service.DeltaSpec{Batches: 1, AppendFrac: 0.01, DeleteFrac: 0.01, Seed: p.e.cfg.seed<<20 + int64(g)}
	case jobHybrid:
		spec.Dataset = p.graphDS
	case jobHybridPersist:
		spec.Dataset, spec.Persist = p.graphDS, true
	}
	return kind, spec
}

// segment runs the next segJobs jobs of the sequence over the clients and
// waits for all of them, so that nothing is in flight at its boundaries.
func (p *papardInst) segment(i int, tr *tracer, scale float64) (*segment, error) {
	base := p.next
	p.next += p.segJobs
	recs := make([]jobRecord, p.segJobs)
	ops := make([]opSample, p.segJobs)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range p.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < p.segJobs; k += len(p.clients) {
				recs[k], ops[k] = p.runJob(c, base+k, tr, scale)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	p.pending = recs
	return &segment{wall: wall, ops: ops}, nil
}

// runJob is one closed-loop iteration: POST the spec, then long-poll the job
// until it is terminal.
func (p *papardInst) runJob(c, g int, tr *tracer, scale float64) (jobRecord, opSample) {
	kind, spec := p.spec(g)
	rec := jobRecord{g: g, kind: kind, delta: spec.Delta}
	op := opSample{kind: jobKindName[kind]}
	root := tr.begin("service.job", g, -1, c, scale)
	t0 := time.Now()
	body, err := json.Marshal(spec)
	if err == nil {
		id := tr.begin("service.submit", g, root, c, scale)
		err = p.call(c, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &rec.status)
		tr.end(id, 1, int64(len(body)))
		op.submit = time.Since(t0)
	}
	if err == nil {
		id := tr.begin("service.wait", g, root, c, scale)
		for err == nil && !rec.status.Terminal() {
			err = p.call(c, http.MethodGet, "/v1/jobs/"+rec.status.ID+"?wait=60s", nil, http.StatusOK, &rec.status)
		}
		tr.end(id, 1, 0)
	}
	op.wall = time.Since(t0)
	tr.end(root, 1, 0)
	rec.err = err
	return rec, op
}

func (p *papardInst) call(c int, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, p.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.clients[c].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// synthesizeBatch re-derives the batch papard makes for a delta spec from the
// resident engine's state. It has to restate the daemon's rule (victims are
// the first DeleteFrac of the seeded shuffle of the resident ids, appends are
// seeded draws from the dataset), because the benchmark checks delta jobs
// from outside and the daemon exports no way to ask which rows it chose.
func synthesizeBatch(eng *incremental.Engine, pool []core.Row, d *service.DeltaSpec, k int) incremental.Batch {
	rng := rand.New(rand.NewSource(d.Seed + int64(k)*1000003))
	ids := eng.IDs()
	delN := int(d.DeleteFrac * float64(len(ids)))
	if delN == 0 && d.DeleteFrac > 0 && len(ids) > 0 {
		delN = 1
	}
	appendN := int(d.AppendFrac * float64(len(ids)))
	if appendN == 0 && d.AppendFrac > 0 {
		appendN = 1
	}
	rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	b := incremental.Batch{Deletes: ids[:delN]}
	for i := 0; i < appendN && len(pool) > 0; i++ {
		b.Appends = append(b.Appends, pool[rng.Intn(len(pool))])
	}
	return b
}

// verify holds every job of the segment to the gate: terminal state done and
// the checksum a direct run gives. Delta jobs are replayed on the mirror in
// issue order (client 0 issues them one after another, so that is also the
// daemon's order).
func (p *papardInst) verify(i int, seg *segment, corrupt bool) {
	recs := p.pending
	p.pending = nil
	if corrupt {
		recs[1].status.Checksum ^= 1
	}
	for k := range recs {
		rec, op := &recs[k], &seg.ops[k]
		st := &rec.status
		op.virtNS = st.MakespanNS
		op.rows = p.rows[rec.kind]
		want := p.wantSum[rec.kind]
		if rec.kind == jobDelta {
			b := synthesizeBatch(p.mirror, p.pool, rec.delta, 0)
			op.rows = len(b.Appends) + len(b.Deletes)
			if _, err := p.mirror.ApplyDelta(b, incremental.ApplyOptions{}); err != nil {
				op.err = fmt.Errorf("job %d: mirror delta: %w", rec.g, err)
				continue
			}
			parts := p.mirror.Partitions()
			entries, err := rowsToEntries(p.mirror.Rows())
			if err != nil {
				op.err = fmt.Errorf("job %d: mirror rows: %w", rec.g, err)
				continue
			}
			ref := blast.CyclicPartition(entries, len(parts))
			if got, r := fingerprintParts(parts), fingerprintParts(blastRows(ref)); got != r {
				op.err = fmt.Errorf("job %d: incremental partitions differ from muBLASTP's cyclic partitioner", rec.g)
				continue
			}
			want = serviceChecksum(parts)
		}
		switch {
		case rec.err != nil:
			op.err = fmt.Errorf("job %d (%s): %w", rec.g, op.kind, rec.err)
		case st.State != service.StateDone:
			op.err = fmt.Errorf("job %d (%s): state %s: %s", rec.g, op.kind, st.State, st.Error)
		case st.Checksum != want:
			op.err = fmt.Errorf("job %d (%s): checksum %016x, a direct run gives %016x", rec.g, op.kind, st.Checksum, want)
		}
	}
}

// miniPapard is the service probe of the batch workloads' traced pass: a
// short papard run of the same seed, one warm-up segment and two traced
// ones, every job through the same gate.
func miniPapard(e *env, tr *tracer) (*papardInst, []segRecord, error) {
	p, err := newPapard(e)
	if err != nil {
		return nil, nil, err
	}
	inst := p.instance()
	warm, err := inst.segment(-1, nil, 1)
	if err == nil {
		inst.verify(-1, warm, false)
		sub := *e
		sub.cfg.seconds, sub.cfg.minSegments, sub.cfg.corruptSegment = 0, 2, -1
		var recs []segRecord
		if recs, err = runSegments(&sub, inst, func(int) *tracer { return tr }); err == nil {
			if s := summarise(recs, true); s.failed > 0 {
				err = fmt.Errorf("service probe: %d of %d jobs failed: %w", s.failed, s.attempted, s.firstErr)
			}
		}
		if err == nil {
			return p, recs, nil
		}
	}
	p.close()
	return nil, nil, err
}

// serviceMetrics summarises the traced segments' jobs and probes the fixed
// costs around them.
func (p *papardInst) serviceMetrics(x *prober, recs []segRecord) ([]metric, error) {
	// A bare run of each partition spec on an idle identical cluster: what a
	// job would cost without HTTP, admission, queueing, journal and the
	// other client's job beside it.
	bare := map[string]float64{}
	for _, kind := range []jobKind{jobBlast, jobBlock, jobHybrid} {
		name := "service.bare." + jobKindName[kind]
		err := x.repeat(5, name, int64(p.rows[kind]), 0, func() error {
			_, err := core.ExecuteOpts(p.cl, p.plans[kind], core.Input{LocalRows: p.inputs[kind]}, core.ExecOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		bare[jobKindName[kind]] = x.tr.normP50(name)
	}
	var submit, job, delta, overhead []float64
	for _, r := range recs {
		if !r.traced {
			continue
		}
		for _, op := range r.ops {
			lat := ms(op.wall) * r.scale
			submit = append(submit, ms(op.submit)*r.scale)
			job = append(job, lat)
			if op.kind == "delta" {
				delta = append(delta, lat)
			} else {
				overhead = append(overhead, lat-bare[op.kind])
			}
		}
	}

	// The journal's own append cost, on a journal of the benchmark's.
	path := filepath.Join(p.e.work, "probe.pjl")
	jl, _, err := service.OpenJournal(path, false)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	_, spec := p.spec(1)
	err = x.burst(200, "service.journal_append", func() error {
		return jl.Append(service.Record{Type: "accepted", ID: "j-probe", Spec: &spec})
	})
	if cerr := jl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(p.journal)
	if err != nil {
		return nil, err
	}
	var snap service.Snapshot
	if err := p.call(0, http.MethodGet, "/v1/stats", nil, http.StatusOK, &snap); err != nil {
		return nil, err
	}
	tail := tailPercentile(len(job))
	return []metric{
		{"service.submit_ms_p50", median(submit), "ms"},
		{"service.job_ms_p50", median(job), "ms"},
		{"service.job_ms_tail", percentile(job, tail), "ms"},
		{"service.job_tail_pctile", tail, "%"},
		{"service.delta_job_ms_p50", median(delta), "ms"},
		{"service.overhead_ms_p50", median(overhead), "ms"},
		{"service.journal_append_us_p50", x.tr.normP50("service.journal_append") * 1e3, "us"},
		{"service.journal_bytes_per_job", float64(info.Size()) / float64(max(snap.Accepted, 1)), "B"},
		{"service.rejected", float64(snap.Rejected), "count"},
		{"service.retries", float64(snap.Retries), "count"},
	}, nil
}

// incrementalMetrics drives the incremental engine directly on the delta
// jobs' dataset: seeding it, then 1%-append + 1%-delete batches.
func (p *papardInst) incrementalMetrics(x *prober) ([]metric, error) {
	var eng *incremental.Engine
	err := x.repeat(3, "incremental.seed", int64(len(p.pool)), 0, func() (err error) {
		eng, err = incremental.New(incremental.Config{Plan: p.plans[jobBlast], Cluster: p.cl}, p.pool)
		return err
	})
	if err != nil {
		return nil, err
	}
	var moved []float64
	for k := 0; k < 10; k++ {
		d := &service.DeltaSpec{AppendFrac: 0.01, DeleteFrac: 0.01, Seed: p.e.cfg.seed}
		b := synthesizeBatch(eng, p.pool, d, k)
		err := x.timed("incremental.apply", int64(len(b.Appends)+len(b.Deletes)), 0, func() error {
			rep, err := eng.ApplyDelta(b, incremental.ApplyOptions{})
			if err == nil {
				moved = append(moved, float64(rep.MovedRows))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return []metric{
		{"incremental.seed_ms", x.tr.normP50("incremental.seed"), "ms"},
		{"incremental.apply_ms_p50", x.tr.normP50("incremental.apply"), "ms"},
		{"incremental.moved_rows_per_batch", mean(moved), "count"},
	}, nil
}
