package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/aspas"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataformat"
	"repro/internal/keyval"
	"repro/internal/mpi"
	"repro/internal/mrmpi"
	"repro/internal/obsv"
	"repro/internal/permute"
	"repro/internal/planopt"
)

// probeSet is what the layer probes of the traced pass work on: the
// workload's own plan, cluster and rows (papard: the delta jobs' dataset).
type probeSet struct {
	plan *core.Plan
	cl   *cluster.Cluster
	// Exactly one of inputPath and locals is set, as in the workload's op.
	inputPath string
	locals    [][]core.Row
	// literal recompiles the workload's plan from its configs, before any
	// optimizer rewrite; optimized says whether the op runs a rewritten plan.
	literal   func() (*core.Plan, error)
	optimized bool
}

// probeRowCap bounds the per-row kernel probes (codec, keyval, sort): enough
// rows for a stable per-row figure without holding a second copy of a
// 900k-row dataset.
const probeRowCap = 200_000

// prober times calls into one layer at a time. Every call is a span (op -1)
// scaled by a reference-kernel run taken right before it, so probe times are
// at reference machine speed like everything else.
type prober struct {
	e  *env
	tr *tracer
}

func (x *prober) timed(name string, n, bytes int64, fn func() error) error {
	scale := calScale(x.e.cal.run())
	id := x.tr.begin(name, -1, -1, 0, scale)
	err := fn()
	x.tr.end(id, n, bytes)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// repeat runs a timed probe reps times.
func (x *prober) repeat(reps int, name string, n, bytes int64, fn func() error) error {
	for k := 0; k < reps; k++ {
		if err := x.timed(name, n, bytes, fn); err != nil {
			return err
		}
	}
	return nil
}

// burst times reps back-to-back calls of a microsecond-scale probe under one
// calibration (a kernel run before each would cost a thousand times the
// probe and leave it cold caches).
func (x *prober) burst(reps int, name string, fn func() error) error {
	scale := calScale(x.e.cal.run())
	for k := 0; k < reps; k++ {
		id := x.tr.begin(name, -1, -1, 0, scale)
		err := fn()
		x.tr.end(id, 1, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// perUnitNS is the median over spans by name of reference-speed nanoseconds
// per unit of work.
func (x *prober) perUnitNS(name string) float64 {
	var xs []float64
	for _, s := range x.tr.byName(name) {
		if s.n > 0 {
			xs = append(xs, s.normMS()*1e6/float64(s.n))
		}
	}
	return median(xs)
}

// mbPerS is the median over spans by name of MB/s at reference speed.
func (x *prober) mbPerS(name string) float64 {
	var xs []float64
	for _, s := range x.tr.byName(name) {
		if d := s.normMS(); d > 0 {
			xs = append(xs, float64(s.bytes)/1e6/(d/1e3))
		}
	}
	return median(xs)
}

// keyColumn is the column the plan sorts or groups by (the first column for
// a plan that does neither).
func keyColumn(plan *core.Plan) int {
	var find func(jobs []core.Job) string
	find = func(jobs []core.Job) string {
		for _, j := range jobs {
			switch j := j.(type) {
			case *core.SortJob:
				return j.KeyCol
			case *core.GroupJob:
				return j.KeyCol
			case *core.FusedJob:
				if k := find(j.Inner); k != "" {
					return k
				}
			}
		}
		return ""
	}
	if col := core.NewRowSchema(plan.InputSchema).Index(find(plan.Jobs)); col >= 0 {
		return col
	}
	return 0
}

// layerMetrics runs the probes and summarises spans into the per-layer
// metrics. Counts and virtual times repeat exactly; wall times are medians
// at reference machine speed.
func layerMetrics(e *env, inst *instance, tr *tracer, recs []segRecord, plain, traced passSummary) ([]metric, error) {
	x := &prober{e: e, tr: tr}
	ps := inst.probe
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	// bench: what tracing costs and what no layer span covers. Both sides of
	// the overhead figure come from this run's alternating segments.
	add("bench.trace_overhead_pct", 100*(median(traced.opNormMS)/median(plain.opNormMS)-1), "%")
	add("bench.unattributed_pct", unattributedPct(tr), "%")

	// service and incremental: measured on the workload itself when it is
	// papard, otherwise on a short papard run of the same seed.
	pp := inst.papard
	if pp == nil {
		var err error
		if pp, recs, err = miniPapard(e, tr); err != nil {
			return nil, err
		}
		defer pp.close()
	}
	svc, err := pp.serviceMetrics(x, recs)
	if err != nil {
		return nil, err
	}
	out = append(out, svc...)
	inc, err := pp.incrementalMetrics(x)
	if err != nil {
		return nil, err
	}
	out = append(out, inc...)

	// core / planopt: compile and optimize the literal plan.
	literal, err := ps.literal()
	if err != nil {
		return nil, err
	}
	if err := x.repeat(5, "core.compile", 1, 0, func() error { _, err := ps.literal(); return err }); err != nil {
		return nil, err
	}
	var stats *planopt.InputStats
	var rw *planopt.Rewrite
	for k := 0; k < 3; k++ {
		err := x.timed("planopt.stats", 1, 0, func() (err error) {
			if ps.inputPath != "" {
				stats, err = planopt.CollectStatsFromFile(literal, ps.inputPath, e.cfg.seed)
			} else {
				stats, err = planopt.CollectStats(literal, ps.locals, e.cfg.seed)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		err = x.timed("planopt.optimize", 1, 0, func() (err error) {
			rw, err = planopt.Optimize(literal, planopt.Options{Ranks: ps.cl.Size(), Stats: stats})
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// One observed run of the workload's plan: virtual phase times, wire
	// traffic, partition balance. The observer is attached for this run only.
	locals := ps.locals
	if locals == nil {
		if locals, err = ingest(ps.plan, ps.inputPath, ps.cl.Size()); err != nil {
			return nil, err
		}
	}
	rec := obsv.NewRecorder()
	ps.cl.SetObserver(rec)
	res, err := core.ExecuteOpts(ps.cl, ps.plan, core.Input{LocalRows: locals}, core.ExecOptions{})
	ps.cl.SetObserver(nil)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, l := range locals {
		rows += len(l)
	}
	// Layers the workload's op does not go through are probed on its rows, so
	// that the number exists; README's interaction table says where to read it.
	if len(tr.byName("core.execute")) == 0 {
		err := x.repeat(5, "core.execute", int64(rows), 0, func() error {
			_, err := core.ExecuteOpts(ps.cl, ps.plan, core.Input{LocalRows: locals}, core.ExecOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if len(tr.byName("dataformat.ingest")) == 0 {
		if err := x.fileProbe(ps, locals, res, rows); err != nil {
			return nil, err
		}
	}
	add("dataformat.ingest_ms_p50", tr.normP50("dataformat.ingest"), "ms")
	add("dataformat.ingest_mb_per_s", x.mbPerS("dataformat.ingest"), "MB/s")
	add("core.compile_ms", tr.normP50("core.compile"), "ms")
	add("core.execute_ms_p50", tr.normP50("core.execute"), "ms")
	add("core.write_ms_p50", tr.normP50("core.write"), "ms")
	add("core.write_mb_per_s", x.mbPerS("core.write"), "MB/s")

	maxPart := 0
	for _, p := range res.Partitions {
		maxPart = max(maxPart, len(p))
	}
	add("core.part_imbalance", float64(maxPart)*float64(len(res.Partitions))/float64(max(rows, 1)), "1")
	add("cluster.wire_bytes_per_row", float64(res.ShuffleBytes)/float64(max(rows, 1)), "B")
	add("cluster.messages_per_op", float64(res.ShuffleMessages), "count")

	add("planopt.stats_ms", tr.normP50("planopt.stats"), "ms")
	add("planopt.optimize_ms", tr.normP50("planopt.optimize"), "ms")
	add("planopt.rules_fired", float64(len(rw.Fired)), "count")
	predicted := rw.Predicted.BeforeNS
	if ps.optimized {
		predicted = rw.Predicted.AfterNS
	}
	add("planopt.predict_err_pct", 100*(float64(predicted)/float64(res.Makespan)-1), "%")

	m := rec.Metrics()
	phase := func(cat, name string) float64 {
		for _, p := range m.Phases {
			if p.Cat == cat && p.Name == name {
				return p.MaxRankBusyNS / 1e6
			}
		}
		return 0
	}
	add("obsv.virt_map_ms", phase("mrmpi", "map"), "ms")
	add("obsv.virt_aggregate_ms", phase("mrmpi", "aggregate"), "ms")
	add("obsv.virt_convert_ms", phase("mrmpi", "convert"), "ms")
	add("obsv.virt_reduce_ms", phase("mrmpi", "reduce"), "ms")
	add("obsv.virt_sort_ms", phase("core", "sort")+phase("mrmpi", "sort"), "ms")
	add("obsv.load_imbalance", m.LoadImbalance, "1")
	add("obsv.shuffle_imbalance", m.ShuffleImbalance, "1")
	res = nil

	// Per-row kernels over the workload's own rows.
	sample := make([]core.Row, 0, min(rows, probeRowCap))
	for _, l := range locals {
		sample = append(sample, l[:min(len(l), cap(sample)-len(sample))]...)
	}
	col := keyColumn(ps.plan)
	pageBytes, err := x.kernelProbes(sample, col)
	if err != nil {
		return nil, err
	}
	add("core.codec_ns_per_row", x.perUnitNS("core.codec"), "ns")
	add("core.codec_bytes_per_row", bytesPerUnit(tr.byName("core.codec")), "B")
	add("keyval.append_ns_per_kv", x.perUnitNS("keyval.append"), "ns")
	add("keyval.page_bytes_per_kv", pageBytes, "B")
	add("permute.sort_ns_per_key", x.perUnitNS("permute.sort"), "ns")

	// The MR-MPI verbs and the bare cost of starting ranks, on the
	// workload's cluster.
	if err := x.verbProbe(ps.cl, locals, col); err != nil {
		return nil, err
	}
	for _, verb := range []string{"map", "aggregate", "convert", "reduce", "sortlocal"} {
		add("mrmpi."+verb+"_ms_p50", tr.normP50("mrmpi."+verb), "ms")
	}
	err = x.burst(200, "cluster.run_spawn", func() error {
		ps.cl.Reset()
		_, err := ps.cl.Run(func(r *cluster.Rank) error { return mpi.NewComm(r).Barrier() })
		return err
	})
	if err != nil {
		return nil, err
	}
	add("cluster.run_spawn_us_p50", tr.normP50("cluster.run_spawn")*1e3, "us")
	return out, nil
}

// unattributedPct is the median share of an op's time that none of its child
// spans covers: the op root's self time.
func unattributedPct(tr *tracer) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	self := selfTimes(tr.spans)
	var xs []float64
	for i, s := range tr.spans {
		if s.parent == -1 && s.op >= 0 && s.dur() > 0 {
			xs = append(xs, 100*float64(self[i])/float64(s.dur()))
		}
	}
	return median(xs)
}

func bytesPerUnit(spans []span) float64 {
	var xs []float64
	for _, s := range spans {
		if s.n > 0 {
			xs = append(xs, float64(s.bytes)/float64(s.n))
		}
	}
	return median(xs)
}

// fileProbe times dataformat ingest and core.WritePartitions on the
// workload's rows, for workloads whose op touches no file.
func (x *prober) fileProbe(ps *probeSet, locals [][]core.Row, res *core.Result, rows int) error {
	var all []core.Row
	for _, l := range locals {
		all = append(all, l...)
	}
	recs, err := core.RowsToRecords(ps.plan.InputSchema, all)
	if err != nil {
		return err
	}
	in := filepath.Join(x.e.work, "probe-in")
	if err := dataformat.WriteFile(ps.plan.InputSchema, in, recs); err != nil {
		return err
	}
	defer os.Remove(in)
	info, err := os.Stat(in)
	if err != nil {
		return err
	}
	err = x.repeat(5, "dataformat.ingest", int64(rows), info.Size(), func() error {
		_, err := ingest(ps.plan, in, ps.cl.Size())
		return err
	})
	if err != nil {
		return err
	}
	out := filepath.Join(x.e.work, "probe-out")
	defer os.RemoveAll(out)
	for k := 0; k < 5; k++ {
		os.RemoveAll(out)
		scale := calScale(x.e.cal.run())
		id := x.tr.begin("core.write", -1, -1, 0, scale)
		err := core.WritePartitions(ps.plan, res, out)
		x.tr.end(id, int64(rows), dirBytes(out))
		if err != nil {
			return err
		}
	}
	return nil
}

// kernelProbes times the per-row kernels under the executor: the row codec,
// keyval appends, and the radix sort of the key column. It returns the
// encoded page bytes per pair.
func (x *prober) kernelProbes(rows []core.Row, col int) (pageBytesPerKV float64, err error) {
	n := int64(len(rows))
	for k := 0; k < 3; k++ {
		var encoded int64
		scale := calScale(x.e.cal.run())
		id := x.tr.begin("core.codec", -1, -1, 0, scale)
		for _, r := range rows {
			buf := core.EncodeRow(r)
			encoded += int64(len(buf))
			if _, err := core.DecodeRow(buf); err != nil {
				return 0, err
			}
		}
		x.tr.end(id, n, encoded)
	}

	keys := make([][]byte, len(rows))
	vals := make([][]byte, len(rows))
	payload := 0
	for i, r := range rows {
		keys[i], vals[i] = []byte(r.Values[col].AsString()), core.EncodeRow(r)
		payload += keyval.KV{Key: keys[i], Value: vals[i]}.Size()
	}
	err = x.repeat(3, "keyval.append", n, 0, func() error {
		l := keyval.NewList(len(rows))
		for i := range keys {
			l.Add(keys[i], vals[i])
		}
		l.Release()
		return nil
	})
	if err != nil {
		return 0, err
	}
	var w keyval.PageWriter
	w.Reset(len(rows), payload)
	for i := range keys {
		w.Add(keys[i], vals[i])
	}
	page := w.Finish()
	pageBytesPerKV = float64(len(page)) / float64(max(n, 1))
	keyval.Recycle(page)

	sortKeys := make([]int64, len(rows))
	for i, r := range rows {
		sortKeys[i] = core.SortableKeyInt64(r.Values[col])
	}
	sorted := make([]int64, len(rows))
	err = x.repeat(3, "permute.sort", n, 0, func() error {
		permute.GatherInto(sorted, sortKeys, aspas.SortPermInt64(sortKeys))
		return nil
	})
	return pageBytesPerKV, err
}

// verbProbe runs the MR-MPI verbs one by one over the workload's rows as
// (key column, encoded row) pairs, every rank on its own share. Rank 0 times
// each verb between two barriers, so a span ends when the slowest rank does.
func (x *prober) verbProbe(cl *cluster.Cluster, locals [][]core.Row, col int) error {
	for k := 0; k < 3; k++ {
		scale := calScale(x.e.cal.run())
		cl.Reset()
		_, err := cl.Run(func(r *cluster.Rank) error {
			comm := mpi.NewComm(r)
			mr := mrmpi.New(comm)
			rows := locals[r.ID()]
			step := func(verb string, fn func() error) error {
				if err := comm.Barrier(); err != nil {
					return err
				}
				id := -1
				if r.ID() == 0 {
					id = x.tr.begin("mrmpi."+verb, -1, -1, 0, scale)
				}
				if err := fn(); err != nil {
					return err
				}
				err := comm.Barrier()
				if r.ID() == 0 {
					x.tr.end(id, int64(len(rows)), 0)
				}
				return err
			}
			if err := step("map", func() error {
				return mr.Map(func(emit mrmpi.Emitter) error {
					for _, row := range rows {
						emit([]byte(row.Values[col].AsString()), core.EncodeRow(row))
					}
					return nil
				})
			}); err != nil {
				return err
			}
			if err := step("aggregate", func() error { return mr.Aggregate(mrmpi.HashPartitioner) }); err != nil {
				return err
			}
			if err := step("convert", func() error { mr.Convert(); return nil }); err != nil {
				return err
			}
			if err := step("reduce", func() error {
				return mr.Reduce(func(g keyval.KMV, emit mrmpi.Emitter) error {
					for _, v := range g.Values {
						emit(g.Key, v)
					}
					return nil
				})
			}); err != nil {
				return err
			}
			return step("sortlocal", func() error {
				mr.SortLocal(func(a, b keyval.KV) bool { return bytes.Compare(a.Key, b.Key) < 0 })
				return nil
			})
		})
		if err != nil {
			return fmt.Errorf("mrmpi verb probe: %w", err)
		}
	}
	return nil
}
