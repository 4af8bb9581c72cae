package dataformat

import (
	"encoding/binary"
	"fmt"
	"os"
)

// Layout is a binary schema's fixed-width record layout, compiled once per
// use instead of re-derived per record: the input configuration fixes every
// column's type and width before the first byte is read (§III-A), so the
// width/offset table is all a decoder or encoder needs. It is the package's
// one binary codec — DecodeBinary, StreamSplit, EncodeBinary and WriteFile
// all run on it.
type Layout struct {
	schema  *Schema
	fields  []layoutField
	recSize int
}

// layoutField places one column inside a record.
type layoutField struct {
	off  int
	long bool // 8-byte Long; otherwise a 4-byte sign-extended Integer
}

// CompileLayout derives the layout of a binary schema.
func CompileLayout(schema *Schema) (*Layout, error) {
	rec, err := schema.RecordSize()
	if err != nil {
		return nil, err
	}
	if rec == 0 {
		return nil, fmt.Errorf("dataformat: schema %q has no fields", schema.ID)
	}
	l := &Layout{schema: schema, fields: make([]layoutField, len(schema.Fields)), recSize: rec}
	off := 0
	for j, f := range schema.Fields {
		l.fields[j] = layoutField{off: off, long: f.Type == Long}
		if l.fields[j].long {
			off += 8
		} else {
			off += 4
		}
	}
	return l, nil
}

// RecordSize returns the byte width of one record.
func (l *Layout) RecordSize() int { return l.recSize }

// FileSize returns the size of a file holding n records, header included.
func (l *Layout) FileSize(n int) int { return int(l.schema.StartPosition) + n*l.recSize }

// decode parses the record at the front of buf into vals.
func (l *Layout) decode(vals []Value, buf []byte) {
	for j, f := range l.fields {
		if f.long {
			vals[j].Int = int64(binary.LittleEndian.Uint64(buf[f.off:]))
		} else {
			vals[j].Int = int64(int32(binary.LittleEndian.Uint32(buf[f.off:])))
		}
	}
}

// StreamSplit decodes one split a read chunk at a time, calling fn with each
// record's values in file order. The values of a chunk share one slab, every
// record capped at its own length; a slab is never reused, so fn may keep
// what it is given. Two choices here are measured ones (DESIGN.md, "File
// path"): a slab per chunk rather than per split, and a call per record
// rather than a call-free decode loop over the chunk.
func (l *Layout) StreamSplit(sp Split, fn func(vals []Value) error) error {
	f, err := os.Open(sp.Path)
	if err != nil {
		return fmt.Errorf("dataformat: %w", err)
	}
	defer f.Close()
	rec := int64(l.recSize)
	if sp.Length%rec != 0 {
		return fmt.Errorf("dataformat: %d bytes is not a multiple of record size %d", sp.Length, rec)
	}
	// Round the chunk down to whole records so every buffer decodes cleanly
	// on its own.
	chunk := int64(streamChunk)
	if chunk < rec {
		chunk = rec
	}
	chunk -= chunk % rec
	if chunk > sp.Length {
		chunk = sp.Length
	}
	buf := make([]byte, chunk)
	nf := len(l.fields)
	for off := int64(0); off < sp.Length; off += chunk {
		m := chunk
		if off+m > sp.Length {
			m = sp.Length - off
		}
		if _, err := f.ReadAt(buf[:m], sp.Offset+off); err != nil {
			return fmt.Errorf("dataformat: reading split %d of %s: %w", sp.Index, sp.Path, err)
		}
		slab := make([]Value, int(m/rec)*nf)
		for p := buf[:m]; len(p) > 0; p = p[rec:] {
			vals := slab[:nf:nf]
			slab = slab[nf:]
			l.decode(vals, p)
			if err := fn(vals); err != nil {
				return err
			}
		}
	}
	return nil
}

// AppendHeader appends the zero-filled StartPosition header that precedes
// the records of a file.
func (l *Layout) AppendHeader(dst []byte) []byte {
	return append(dst, make([]byte, l.schema.StartPosition)...)
}

// AppendRecord appends one record's bytes to dst, straight from its values
// in schema order. String-typed values are parsed as decimal integers.
func (l *Layout) AppendRecord(dst []byte, vals []Value) ([]byte, error) {
	if len(vals) != len(l.fields) {
		return dst, fmt.Errorf("dataformat: %d values for %d fields", len(vals), len(l.fields))
	}
	for j, f := range l.fields {
		v := vals[j].Int
		if vals[j].IsStr {
			var err error
			if v, err = vals[j].AsInt(); err != nil {
				return dst, fmt.Errorf("dataformat: field %q: %w", l.schema.Fields[j].Name, err)
			}
		}
		if f.long {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		} else {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(v)))
		}
	}
	return dst, nil
}

// appendRecords appends the bytes of recs to dst.
func (l *Layout) appendRecords(dst []byte, recs []Record) ([]byte, error) {
	for i, r := range recs {
		var err error
		if dst, err = l.AppendRecord(dst, r.Values); err != nil {
			return nil, fmt.Errorf("dataformat: record %d: %w", i, err)
		}
	}
	return dst, nil
}
