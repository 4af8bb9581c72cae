package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/blast"
	"repro/internal/core"
	"repro/internal/graph"
)

// The correctness gate scores partitions from outside the partitioner, the
// way KaHIP's evaluator does: set-up computes what the application's own
// partitioning program (muBLASTP's cyclic/block deal, PowerLyra's hybrid-cut)
// produces for the same input, and every op's output must match it.

// fingerprint summarises a partition set without allocating. ordered changes
// with any row moving or changing anywhere; multiset ignores the order of
// rows inside a partition (the hybrid-cut reference is only defined up to
// that order) but not which partition a row is in.
type fingerprint struct {
	rows     int
	ordered  uint64
	multiset uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

func hashRow(r core.Row) uint64 {
	h := uint64(0xCBF29CE484222325)
	for _, v := range r.Values {
		if v.IsStr {
			for i := 0; i < len(v.Str); i++ {
				h = (h ^ uint64(v.Str[i])) * 0x100000001B3
			}
			h = mix64(h ^ 0x5F)
		} else {
			h = mix64(h ^ uint64(v.Int))
		}
	}
	return h
}

func fingerprintParts(parts [][]core.Row) fingerprint {
	var fp fingerprint
	for p, rows := range parts {
		var sum uint64
		chain := mix64(uint64(p) + 1)
		for _, r := range rows {
			h := hashRow(r)
			sum += mix64(h)
			chain = mix64(chain ^ h)
		}
		fp.rows += len(rows)
		fp.ordered = mix64(fp.ordered ^ chain)
		fp.multiset = mix64(fp.multiset ^ mix64(sum+uint64(p)))
	}
	return fp
}

// blastRows converts the reference partitioner's output to rows.
func blastRows(parts []blast.Partition) [][]core.Row {
	out := make([][]core.Row, len(parts))
	for p, part := range parts {
		out[p] = core.RecordsToRows((&blast.Database{Entries: part.Entries}).Records())
	}
	return out
}

// edgeRows converts PowerLyra's per-partition edge lists to rows.
func edgeRows(parts [][]graph.Edge) [][]core.Row {
	out := make([][]core.Row, len(parts))
	for p, edges := range parts {
		out[p] = core.RecordsToRows(graph.EdgesToRows(edges))
	}
	return out
}

// rowsToEntries reads blast rows back into index entries.
func rowsToEntries(rows []core.Row) ([]blast.IndexEntry, error) {
	recs, err := core.RowsToRecords(blast.Schema(), rows)
	if err != nil {
		return nil, err
	}
	return blast.FromRecords(recs)
}

// writeRefTree writes the reference partitions as a part-NNNNN tree with an
// encoder of its own (the Fig. 4 layout: a 32-byte zero header, then four
// little-endian int32 per sequence), so that the byte comparison does not
// check core.WritePartitions against itself.
func writeRefTree(dir string, parts []blast.Partition) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for p, part := range parts {
		buf := make([]byte, 32, 32+16*len(part.Entries))
		for _, e := range part.Entries {
			for _, v := range [4]int32{e.SeqStart, e.SeqSize, e.DescStart, e.DescSize} {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("part-%05d", p)), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// compareTrees reports the first difference between two flat directories:
// a file only one has, or a file whose bytes differ.
func compareTrees(got, want string) error {
	names := func(dir string) ([]string, error) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		out := make([]string, len(ents))
		for i, e := range ents {
			out[i] = e.Name()
		}
		sort.Strings(out)
		return out, nil
	}
	g, err := names(got)
	if err != nil {
		return err
	}
	w, err := names(want)
	if err != nil {
		return err
	}
	if len(g) != len(w) {
		return fmt.Errorf("%s holds %d files, reference holds %d", got, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			return fmt.Errorf("%s has %s where the reference has %s", got, g[i], w[i])
		}
		a, err := os.ReadFile(filepath.Join(got, g[i]))
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(want, w[i]))
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s differs from the reference (%d vs %d bytes)", filepath.Join(got, g[i]), len(a), len(b))
		}
	}
	return nil
}

// serviceChecksum restates papard's job checksum (the daemon's own function
// is unexported): FNV-64a over the encoded rows, a 0x00 after every row and a
// 0xFF after every partition. The benchmark computes it from partitions it
// obtained itself.
func serviceChecksum(parts [][]core.Row) uint64 {
	h := fnv.New64a()
	for _, part := range parts {
		for _, r := range part {
			h.Write(core.EncodeRow(r))
			h.Write([]byte{0})
		}
		h.Write([]byte{0xFF})
	}
	return h.Sum64()
}
