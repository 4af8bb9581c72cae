package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/dataformat"
)

// shippedBinarySchemas parses every embedded input description and keeps the
// binary ones.
func shippedBinarySchemas(t testing.TB) []*dataformat.Schema {
	t.Helper()
	ents, err := repro.ConfigFS.ReadDir("configs")
	if err != nil {
		t.Fatal(err)
	}
	var out []*dataformat.Schema
	for _, e := range ents {
		s, err := config.ParseInput(repro.Config(e.Name()))
		if err == nil && s.Binary {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		t.Fatal("no binary input description among the embedded configs")
	}
	return out
}

// randomRows draws n rows of the schema's arity; Integer columns stay inside
// int32 so the file round-trips them.
func randomRows(rng *rand.Rand, s *dataformat.Schema, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i].Values = make([]dataformat.Value, len(s.Fields))
		for j, f := range s.Fields {
			v := rng.Int63() - 1<<62
			if f.Type == dataformat.Integer {
				v = int64(int32(v))
			}
			rows[i].Values[j] = dataformat.IntVal(v)
		}
	}
	return rows
}

// writeOracle is the pre-change WritePartitions: RowsToRecords -> WriteFile,
// one partition after the other.
func writeOracle(s *dataformat.Schema, parts [][]Row, base string) error {
	for pi, rows := range parts {
		recs, err := RowsToRecords(s, rows)
		if err != nil {
			return err
		}
		if err := dataformat.WriteFile(s, dataformat.PartitionPath(base, pi), recs); err != nil {
			return err
		}
	}
	return nil
}

func sameTrees(t *testing.T, got, want string, n int) {
	t.Helper()
	for pi := 0; pi < n; pi++ {
		g, err := os.ReadFile(dataformat.PartitionPath(got, pi))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(dataformat.PartitionPath(want, pi))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("partition %d: %d bytes written, the oracle wrote %d (or the contents differ)", pi, len(g), len(w))
		}
	}
}

// TestWritePartitionsMatchesOracle holds the direct writer to RowsToRecords
// -> WriteFile, byte for byte, on every shipped binary schema: many
// partitions (more than workers), an empty one, and a row whose values are
// string-typed numerics.
func TestWritePartitionsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, s := range shippedBinarySchemas(t) {
		parts := make([][]Row, 9)
		for pi := range parts {
			parts[pi] = randomRows(rng, s, 1+rng.Intn(300))
		}
		parts[4] = nil
		for j := range parts[1][0].Values {
			parts[1][0].Values[j] = dataformat.StrVal(fmt.Sprint(int64(j) - 2))
		}
		dir := t.TempDir()
		got, want := filepath.Join(dir, "got"), filepath.Join(dir, "want")
		if err := WritePartitions(&Plan{InputSchema: s}, &Result{Partitions: parts}, got); err != nil {
			t.Fatal(err)
		}
		if err := writeOracle(s, parts, want); err != nil {
			t.Fatal(err)
		}
		sameTrees(t, got, want, len(parts))

		// A value that is not a number is refused by partition and row; of two
		// bad partitions the lower one is reported.
		parts[6] = append(parts[6], intRow(1), intRow(2))
		parts[2] = randomRows(rng, s, 3)
		parts[2][1].Values[0] = dataformat.StrVal("not-a-number")
		err := WritePartitions(&Plan{InputSchema: s}, &Result{Partitions: parts}, filepath.Join(dir, "bad"))
		if err == nil || !strings.Contains(err.Error(), "partition 2: row 1:") || !strings.Contains(err.Error(), "not-a-number") {
			t.Fatalf("non-numeric value in partition 2 row 1: %v", err)
		}
	}
}

// writeBlastFile writes n random records in the Fig. 4 format and returns
// the path with the rows a whole-file reference read makes of it.
func writeBlastFile(t testing.TB, n int) (string, []Row) {
	t.Helper()
	s := blastFileSchema()
	recs, err := RowsToRecords(s, randomRows(rand.New(rand.NewSource(int64(n))), s, n))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in.db")
	if err := dataformat.WriteFile(s, path, recs); err != nil {
		t.Fatal(err)
	}
	all, err := dataformat.ReadAll(s, path)
	if err != nil {
		t.Fatal(err)
	}
	return path, RecordsToRows(all)
}

// TestIngestFileMatchesReadAll: the shared ingest gives every rank exactly
// its split, in file order, across read-chunk boundaries (the file is larger
// than one chunk), and every row is capped at its own length.
func TestIngestFileMatchesReadAll(t *testing.T) {
	path, want := writeBlastFile(t, 40_000)
	for _, p := range []int{1, 3, 8} {
		locals, err := IngestFile(blastFileSchema(), path, p)
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		for rank, rows := range locals {
			if lo, hi := len(want)*rank/p, len(want)*(rank+1)/p; len(rows) != hi-lo {
				t.Fatalf("p=%d: rank %d holds %d rows, its split has %d", p, rank, len(rows), hi-lo)
			}
			for _, r := range rows {
				if r.String() != want[at].String() {
					t.Fatalf("p=%d: row %d = %v, want %v", p, at, r, want[at])
				}
				if cap(r.Values) != len(r.Values) {
					t.Fatalf("p=%d: row %d has cap %d over len %d", p, at, cap(r.Values), len(r.Values))
				}
				at++
			}
		}
		if at != len(want) {
			t.Fatalf("p=%d: %d rows ingested, the file has %d", p, at, len(want))
		}
	}
	if _, err := IngestFile(blastFileSchema(), path+".missing", 2); err == nil {
		t.Error("missing file ingested")
	}
}

// elidedBlast compiles the Fig. 8 workflow and turns its distribute into an
// elided one under the given policy, as the optimizer would.
func elidedBlast(t *testing.T, np string, policy DistrPolicy) *Plan {
	t.Helper()
	plan := compileBlast(t, np)
	var jobs []Job
	for _, j := range plan.Jobs {
		if d, ok := j.(*DistributeJob); ok {
			d.Policy, d.ElideShuffle = policy, true
			jobs = append(jobs, d)
		}
	}
	plan.Jobs = jobs // the sort needs the shuffle; the file path does not
	return plan
}

// resultBytes is a result's partitions in the shuffle encoding, one buffer
// per partition: what "byte-identical" is measured on.
func resultBytes(res *Result) [][]byte {
	out := make([][]byte, len(res.Partitions))
	for p, rows := range res.Partitions {
		for _, r := range rows {
			out[p] = append(out[p], EncodeRow(r)...)
		}
	}
	return out
}

// TestPartitionAppendDoesNotClobber is the ownership rule of
// Result.Partitions from the caller's side: partitions cut from one rank slab
// and rows cut from one decode slab are capped, so growing one never writes
// into the next. (The benchmark's corrupt-segment check does exactly this
// append.)
func TestPartitionAppendDoesNotClobber(t *testing.T) {
	path, _ := writeBlastFile(t, 2_000)
	for _, policy := range []DistrPolicy{Block, Cyclic} {
		plan := elidedBlast(t, "8", policy)
		cl := cluster.New(cluster.DefaultConfig(2))
		res, err := Execute(cl, plan, Input{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		before := resultBytes(res)
		for p := range res.Partitions {
			res.Partitions[p] = append(res.Partitions[p], intRow(-1, -1, -1, -1))
			row := &res.Partitions[p][0]
			row.Values = append(row.Values, dataformat.IntVal(-9))
		}
		for p, rows := range res.Partitions {
			rows[0].Values = rows[0].Values[:4]
			res.Partitions[p] = rows[:len(rows)-1]
		}
		for p, got := range resultBytes(res) {
			if !bytes.Equal(got, before[p]) {
				t.Fatalf("%v: appending to its neighbours changed partition %d", policy, p)
			}
		}
	}
}

// TestExecuteDoesNotShareLocalRowHeaders: the caller's LocalRows headers are
// never handed out. Overwriting, reordering and growing the first result's
// partitions leaves both the input and a second Execute over it
// byte-identical.
func TestExecuteDoesNotShareLocalRowHeaders(t *testing.T) {
	_, rows := writeBlastFile(t, 1_500)
	for _, policy := range []DistrPolicy{Block, Cyclic} {
		plan := elidedBlast(t, "6", policy)
		cl := cluster.New(cluster.DefaultConfig(2))
		locals := spread(rows, cl.Size())
		input := resultBytes(&Result{Partitions: locals})
		first, err := Execute(cl, plan, Input{LocalRows: locals})
		if err != nil {
			t.Fatal(err)
		}
		want := resultBytes(first)
		for p, part := range first.Partitions {
			for i := range part {
				part[i] = intRow(0, 0, 0, 0)
			}
			first.Partitions[p] = append(part, part...)
		}
		second, err := Execute(cl, plan, Input{LocalRows: locals})
		if err != nil {
			t.Fatal(err)
		}
		for p, got := range resultBytes(second) {
			if !bytes.Equal(got, want[p]) {
				t.Fatalf("%v: partition %d changed after the first result was overwritten", policy, p)
			}
		}
		for r, got := range resultBytes(&Result{Partitions: locals}) {
			if !bytes.Equal(got, input[r]) {
				t.Fatalf("%v: rank %d's LocalRows changed", policy, r)
			}
		}
	}
}

// benchRows is the kernels' input size: 200k Fig. 4 records, 3.2 MB.
const benchRows = 200_000

// BenchmarkIngestBinary is the ingest end of the file path on its own: one
// file into 8 ranks' rows.
func BenchmarkIngestBinary(b *testing.B) {
	path, _ := writeBlastFile(b, benchRows)
	s := blastFileSchema()
	b.SetBytes(int64(benchRows * 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := IngestFile(s, path, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePartitions is the write end: the same rows as 32 partitions
// into a part-NNNNN tree.
func BenchmarkWritePartitions(b *testing.B) {
	_, rows := writeBlastFile(b, benchRows)
	plan, res := &Plan{InputSchema: blastFileSchema()}, &Result{Partitions: spread(rows, 32)}
	out := filepath.Join(b.TempDir(), "out")
	b.SetBytes(int64(benchRows * 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WritePartitions(plan, res, out); err != nil {
			b.Fatal(err)
		}
	}
}
