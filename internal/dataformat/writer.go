package dataformat

import (
	"fmt"
	"os"
	"path/filepath"
)

// EncodeBinary serializes records into the schema's fixed-width binary
// layout (without the StartPosition header).
func EncodeBinary(schema *Schema, recs []Record) ([]byte, error) {
	l, err := CompileLayout(schema)
	if err != nil {
		return nil, err
	}
	return l.appendRecords(make([]byte, 0, l.RecordSize()*len(recs)), recs)
}

// EncodeText serializes records into the schema's delimited text layout.
func EncodeText(schema *Schema, recs []Record) ([]byte, error) {
	var out []byte
	for i, r := range recs {
		if len(r.Values) != len(schema.Fields) {
			return nil, fmt.Errorf("dataformat: record %d has %d values for %d fields", i, len(r.Values), len(schema.Fields))
		}
		for j, f := range schema.Fields {
			out = append(out, r.Values[j].AsString()...)
			out = append(out, f.Delimiter...)
		}
	}
	return out, nil
}

// WriteFile writes records to path in the schema's on-disk format,
// including the StartPosition header (zero-filled) for binary schemas so
// that the output is readable with the same schema — the paper requires
// output files to keep the input format.
func WriteFile(schema *Schema, path string, recs []Record) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	var payload []byte
	var err error
	if schema.Binary {
		var l *Layout
		if l, err = CompileLayout(schema); err != nil {
			return err
		}
		payload, err = l.appendRecords(l.AppendHeader(make([]byte, 0, l.FileSize(len(recs)))), recs)
	} else {
		payload, err = EncodeText(schema, recs)
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("dataformat: %w", err)
	}
	if err := os.WriteFile(path, payload, 0o666); err != nil {
		return fmt.Errorf("dataformat: %w", err)
	}
	return nil
}

// PartitionPath names the per-partition output file under a base path,
// mirroring Hadoop's part-00000 convention.
func PartitionPath(base string, part int) string {
	return filepath.Join(base, fmt.Sprintf("part-%05d", part))
}
