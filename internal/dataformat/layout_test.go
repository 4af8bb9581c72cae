package dataformat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// refDecodeBinary is DecodeBinary as it stood before the compiled layout:
// one []Value per record, fields walked by type. The property tests hold the
// slab decoder to it.
func refDecodeBinary(schema *Schema, buf []byte) ([]Record, error) {
	rec, err := schema.RecordSize()
	if err != nil {
		return nil, err
	}
	if len(buf)%rec != 0 {
		return nil, fmt.Errorf("dataformat: %d bytes is not a multiple of record size %d", len(buf), rec)
	}
	n := len(buf) / rec
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := Record{Schema: schema, Values: make([]Value, len(schema.Fields))}
		p := buf[i*rec:]
		for j, f := range schema.Fields {
			switch f.Type {
			case Integer:
				r.Values[j] = IntVal(int64(int32(binary.LittleEndian.Uint32(p))))
				p = p[4:]
			case Long:
				r.Values[j] = IntVal(int64(binary.LittleEndian.Uint64(p)))
				p = p[8:]
			default:
				return nil, fmt.Errorf("dataformat: type %v in binary schema", f.Type)
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// randomBinarySchema draws 1-8 Integer/Long fields and a 0- or 32-byte
// header.
func randomBinarySchema(rng *rand.Rand) *Schema {
	s := &Schema{ID: "prop", Binary: true, StartPosition: int64(32 * rng.Intn(2))}
	for j := 0; j < 1+rng.Intn(8); j++ {
		s.Fields = append(s.Fields, Field{Name: fmt.Sprintf("f%d", j), Type: FieldType(rng.Intn(2))})
	}
	return s
}

// sameRecords compares values only, and requires every decoded record to be
// capped at its own length.
func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Values, want[i].Values) {
			t.Fatalf("%s: record %d = %v, want %v", what, i, got[i], want[i])
		}
		if cap(got[i].Values) != len(got[i].Values) {
			t.Fatalf("%s: record %d has cap %d over len %d: an append would overwrite its neighbour",
				what, i, cap(got[i].Values), len(got[i].Values))
		}
	}
}

// TestLayoutMatchesReferenceDecoder is the codec's property test: random
// binary schemas x random record counts x read chunks of 1-3 records x 1-4
// splits. Random bytes make every Integer's sign bit random, so sign
// extension is exercised throughout.
func TestLayoutMatchesReferenceDecoder(t *testing.T) {
	defer func(old int) { streamChunk = old }(streamChunk)
	rng := rand.New(rand.NewSource(16))
	dir := t.TempDir()
	for iter := 0; iter < 300; iter++ {
		s := randomBinarySchema(rng)
		rec, err := s.RecordSize()
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(40)
		body := make([]byte, n*rec)
		rng.Read(body)
		want, err := refDecodeBinary(s, body)
		if err != nil {
			t.Fatal(err)
		}

		got, err := DecodeBinary(s, body)
		if err != nil {
			t.Fatalf("iter %d: DecodeBinary: %v", iter, err)
		}
		sameRecords(t, "DecodeBinary", got, want)

		// Encoding what was decoded gives the bytes back, through every door.
		enc, err := EncodeBinary(s, want)
		if err != nil || !bytes.Equal(enc, body) {
			t.Fatalf("iter %d: EncodeBinary round trip differs (err %v)", iter, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("f%d.bin", iter))
		if err := WriteFile(s, path, want); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, append(make([]byte, s.StartPosition), body...)) {
			t.Fatalf("iter %d: WriteFile is not zero header + records", iter)
		}

		streamChunk = rec * (1 + rng.Intn(3))
		sps, err := Splits(s, path, 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		var streamed []Record
		for _, sp := range sps {
			if err := StreamSplit(s, sp, func(r Record) error {
				streamed = append(streamed, r)
				return nil
			}); err != nil {
				t.Fatalf("iter %d: StreamSplit: %v", iter, err)
			}
		}
		sameRecords(t, "StreamSplit", streamed, want)
	}
}

// TestLayoutErrorsUnchanged pins the error texts callers saw before the
// compiled layout: ragged buffers, ragged splits, and splits that run past
// the end of the file.
func TestLayoutErrorsUnchanged(t *testing.T) {
	s := blastSchema()
	_, wantErr := refDecodeBinary(s, make([]byte, 17))
	if _, err := DecodeBinary(s, make([]byte, 17)); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("DecodeBinary on 17 bytes: %v, want %v", err, wantErr)
	}
	text := &Schema{ID: "t", Fields: []Field{{Name: "a", Type: String, Delimiter: "\n"}}}
	_, wantErr = refDecodeBinary(text, nil)
	if _, err := DecodeBinary(text, nil); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("DecodeBinary on a text schema: %v, want %v", err, wantErr)
	}

	path := writeTempBlast(t, paperIndexRecords(s))
	none := func(Record) error { return nil }
	err := StreamSplit(s, Split{Path: path, Offset: 32, Length: 24}, none)
	if err == nil || err.Error() != "dataformat: 24 bytes is not a multiple of record size 16" {
		t.Errorf("ragged split: %v", err)
	}
	n := 0
	err = StreamSplit(s, Split{Path: path, Offset: 32, Length: 16 * 1000, Index: 3}, func(Record) error { n++; return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "dataformat: reading split 3 of "+path+": ") {
		t.Errorf("split past the end of the file: %v", err)
	}
	if n != 0 {
		t.Errorf("truncated chunk delivered %d records", n)
	}
	if err := StreamSplit(s, Split{Path: path + ".missing", Length: 16}, none); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
}

// TestAppendRecordStringValues covers the slow arm of the encoder: a
// string-typed value is parsed as a decimal integer, and a non-numeric one is
// refused by field name.
func TestAppendRecordStringValues(t *testing.T) {
	s := blastSchema()
	l, err := CompileLayout(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.AppendRecord(nil, []Value{StrVal("-7"), IntVal(2), StrVal("3"), IntVal(4)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := l.AppendRecord(nil, []Value{IntVal(-7), IntVal(2), IntVal(3), IntVal(4)})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("string-typed numerics encode as %x, want %x (err %v)", got, want, err)
	}
	if _, err := l.AppendRecord(nil, []Value{IntVal(1), StrVal("x"), IntVal(3), IntVal(4)}); err == nil || !strings.Contains(err.Error(), `"seq_size"`) {
		t.Errorf("non-numeric value: %v", err)
	}
	if _, err := CompileLayout(&Schema{ID: "empty", Binary: true}); err == nil {
		t.Error("layout of a schema without fields compiled")
	}
}
