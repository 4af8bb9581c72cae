package core

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataformat"
)

// The file path: bytes -> rows on the way in, rows -> bytes on the way out.
// Both ends allocate per read chunk or per partition, never per row, and run
// on GOMAXPROCS workers: splits decode independently and partitions encode
// independently (DESIGN.md, "File path").

// parallelFor runs fn(worker, i) for every i in [0, n) on up to GOMAXPROCS
// goroutines, handing out indexes dynamically; worker identifies the calling
// goroutine (0 <= worker < the count returned by fileWorkers) so fn can keep
// per-worker scratch. It returns the error of the lowest failing index.
func parallelFor(n int, fn func(worker, i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < fileWorkers(n); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fileWorkers is the number of goroutines parallelFor spreads n items over.
func fileWorkers(n int) int { return min(runtime.GOMAXPROCS(0), n) }

// IngestFile reads the schema's file at path as p record-aligned splits —
// the placement the executor gives its p ranks — decoding the splits
// concurrently. With ScanFile it is the repo's one file-ingest loop: the
// executor and the papar CLI materialize rows through it, the optimizer's
// statistics pass streams through ScanFile.
//
// Rows of a binary file are views into value slabs shared per read chunk,
// each capped at its own length, so appending to a row's Values never
// touches its neighbour; the slabs are never reused, so the rows are the
// caller's to keep.
func IngestFile(schema *dataformat.Schema, path string, p int) ([][]Row, error) {
	splits, layout, err := openSplits(schema, path, p)
	if err != nil {
		return nil, err
	}
	locals := make([][]Row, p)
	err = parallelFor(p, func(_, i int) error {
		var rows []Row
		if layout != nil {
			rows = make([]Row, 0, splits[i].Length/int64(layout.RecordSize()))
		}
		err := scanSplit(schema, layout, splits[i], func(r Row) error {
			rows = append(rows, r)
			return nil
		})
		locals[i] = rows
		return err
	})
	if err != nil {
		return nil, err
	}
	return locals, nil
}

// ScanFile streams the file's rows to fn in file order, holding one read
// chunk at a time. fn may keep the rows it is given (see IngestFile).
func ScanFile(schema *dataformat.Schema, path string, fn func(Row) error) error {
	splits, layout, err := openSplits(schema, path, 1)
	if err != nil {
		return err
	}
	return scanSplit(schema, layout, splits[0], fn)
}

// openSplits cuts the file into p splits and compiles the layout of a binary
// schema (nil for text).
func openSplits(schema *dataformat.Schema, path string, p int) ([]dataformat.Split, *dataformat.Layout, error) {
	splits, err := dataformat.Splits(schema, path, p)
	if err != nil || !schema.Binary {
		return splits, nil, err
	}
	layout, err := dataformat.CompileLayout(schema)
	return splits, layout, err
}

// scanSplit decodes one split row by row, a read chunk at a time: ingest
// never holds a whole split's raw bytes. Text records own freshly parsed
// values; binary rows are views into their chunk's slab. Neither is cloned.
func scanSplit(schema *dataformat.Schema, layout *dataformat.Layout, sp dataformat.Split, fn func(Row) error) error {
	if layout == nil {
		return dataformat.StreamSplit(schema, sp, func(rec dataformat.Record) error {
			return fn(Row{Values: rec.Values})
		})
	}
	return layout.StreamSplit(sp, func(vals []dataformat.Value) error {
		return fn(Row{Values: vals})
	})
}

// WritePartitions writes every partition of a result to
// base/part-NNNNN files in the plan's input format. Binary partitions are
// encoded straight from their rows and written with one write each, spread
// over GOMAXPROCS workers; the error of the lowest failing partition is
// returned.
func WritePartitions(plan *Plan, res *Result, base string) error {
	schema := plan.InputSchema
	if !schema.Binary {
		for pi, rows := range res.Partitions {
			recs, err := RowsToRecords(schema, rows)
			if err != nil {
				return fmt.Errorf("core: partition %d: %w", pi, err)
			}
			if err := dataformat.WriteFile(schema, dataformat.PartitionPath(base, pi), recs); err != nil {
				return err
			}
		}
		return nil
	}
	layout, err := dataformat.CompileLayout(schema)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// One encode buffer per worker, grown to its largest partition and reused.
	bufs := make([][]byte, fileWorkers(len(res.Partitions)))
	return parallelFor(len(res.Partitions), func(w, pi int) error {
		rows := res.Partitions[pi]
		buf := layout.AppendHeader(slices.Grow(bufs[w][:0], layout.FileSize(len(rows))))
		for i, r := range rows {
			var err error
			if buf, err = layout.AppendRecord(buf, r.Values); err != nil {
				return fmt.Errorf("core: partition %d: row %d: %w", pi, i, err)
			}
		}
		bufs[w] = buf
		if err := os.WriteFile(dataformat.PartitionPath(base, pi), buf, 0o666); err != nil {
			return fmt.Errorf("core: partition %d: %w", pi, err)
		}
		return nil
	})
}
