package planopt

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dataformat"
	"repro/internal/sample"
)

// StatsSampleCap is the reservoir capacity for each sampled column. 4096
// keys bound collection cost on arbitrarily large inputs while keeping the
// percentile estimates the threshold and policy rules need well within the
// tolerance that matters (the rules compare policies, they do not need exact
// quantiles).
const StatsSampleCap = 4096

// InputStats summarizes a workflow input for the optimizer's cost models.
// Collection reuses the §III-D sampling machinery (sample.Reservoir), run
// once on the host over the raw input rather than per-rank inside a job.
type InputStats struct {
	// Rows is the total input row count (exact, from the collection scan).
	Rows int64
	// AvgRowBytes is the mean encoded row size, estimated from a prefix.
	AvgRowBytes float64
	// SortKeySample is a reservoir sample of the sort-key column mapped to
	// sortable int64 space; nil when the workflow has no Sort job. For
	// muBLASTP-style workflows the sort key (seq_size) doubles as the
	// per-row work weight, which is what the policy cost model needs.
	SortKeySample []int64
	// GroupKeySample is a reservoir sample of the group-key column, hashed
	// to int64; nil when the workflow has no Group job. Multiplicities in
	// the sample estimate the group-size (vertex-degree) distribution.
	GroupKeySample []int64
}

// keyColumns finds the input-schema column indexes of the first Sort and
// Group jobs (-1 when absent or when the key is not an input column).
func keyColumns(p *core.Plan) (sortCol, groupCol int) {
	sortCol, groupCol = -1, -1
	rs := core.NewRowSchema(p.InputSchema)
	for _, j := range p.Jobs {
		switch t := j.(type) {
		case *core.SortJob:
			if sortCol < 0 {
				sortCol = rs.Index(t.KeyCol)
			}
		case *core.GroupJob:
			if groupCol < 0 {
				groupCol = rs.Index(t.KeyCol)
			}
		}
	}
	return sortCol, groupCol
}

// collect runs the shared sampling loop over a row stream.
type collector struct {
	sortCol, groupCol int
	sortRes, groupRes *sample.Reservoir
	rows              int64
	bytes             int64
	sizedRows         int64
}

// avgRowBytesPrefix bounds how many rows contribute to the encoded-size
// estimate; encoding every row would double the collection cost for a
// statistic that converges in a few hundred samples.
const avgRowBytesPrefix = 1024

func newCollector(p *core.Plan, seed int64) *collector {
	c := &collector{}
	c.sortCol, c.groupCol = keyColumns(p)
	if c.sortCol >= 0 {
		c.sortRes = sample.NewReservoir(StatsSampleCap, seed)
	}
	if c.groupCol >= 0 {
		c.groupRes = sample.NewReservoir(StatsSampleCap, seed+1)
	}
	return c
}

func (c *collector) offer(values []dataformat.Value) {
	c.rows++
	if c.sizedRows < avgRowBytesPrefix {
		c.bytes += int64(len(core.EncodeRow(core.Row{Values: values})))
		c.sizedRows++
	}
	if c.sortRes != nil && c.sortCol < len(values) {
		c.sortRes.Offer(core.SortableKeyInt64(values[c.sortCol]))
	}
	if c.groupRes != nil && c.groupCol < len(values) {
		// Hash into a space wide enough that sampled keys collide with
		// negligible probability; multiplicity then estimates group size.
		c.groupRes.Offer(int64(core.HashValue(values[c.groupCol], 1<<30)))
	}
}

func (c *collector) stats() *InputStats {
	s := &InputStats{Rows: c.rows}
	if c.sizedRows > 0 {
		s.AvgRowBytes = float64(c.bytes) / float64(c.sizedRows)
	}
	if c.sortRes != nil {
		s.SortKeySample = c.sortRes.Sample()
	}
	if c.groupRes != nil {
		s.GroupKeySample = c.groupRes.Sample()
	}
	return s
}

// CollectStats samples in-memory row sets (the experiment harness path). The
// seed fixes the reservoirs so collection is deterministic.
func CollectStats(p *core.Plan, rowSets [][]core.Row, seed int64) (*InputStats, error) {
	if p.InputSchema == nil {
		return nil, fmt.Errorf("planopt: plan %s has no input schema", p.WorkflowID)
	}
	c := newCollector(p, seed)
	for _, rows := range rowSets {
		for _, r := range rows {
			c.offer(r.Values)
		}
	}
	return c.stats(), nil
}

// CollectStatsFromFile samples an on-disk input (the papar CLI path),
// streamed through the executor's own bounded-memory ingest.
func CollectStatsFromFile(p *core.Plan, path string, seed int64) (*InputStats, error) {
	if p.InputSchema == nil {
		return nil, fmt.Errorf("planopt: plan %s has no input schema", p.WorkflowID)
	}
	c := newCollector(p, seed)
	err := core.ScanFile(p.InputSchema, path, func(r core.Row) error {
		c.offer(r.Values)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("planopt: sampling %s: %w", path, err)
	}
	return c.stats(), nil
}

// groupKeyDegrees estimates the group-size distribution from the group-key
// sample: each distinct sampled key's multiplicity, scaled by the inverse
// sampling rate, approximates its true group size. Returned in a
// deterministic order (ascending hashed key) with one entry per distinct
// key; keys are the hashed identities, which the policy cost model reuses
// for hash-placement simulation.
func (s *InputStats) groupKeyDegrees() (keys, degs []int64) {
	if len(s.GroupKeySample) == 0 {
		return nil, nil
	}
	counts := map[int64]int64{}
	for _, k := range s.GroupKeySample {
		counts[k]++
	}
	keys = make([]int64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	scale := float64(s.Rows) / float64(len(s.GroupKeySample))
	if scale < 1 {
		scale = 1
	}
	degs = make([]int64, len(keys))
	for i, k := range keys {
		d := int64(float64(counts[k]) * scale)
		if d < 1 {
			d = 1
		}
		degs[i] = d
	}
	return keys, degs
}

// DistinctGroupKeys reports how many distinct group keys the sample holds.
func (s *InputStats) DistinctGroupKeys() int {
	_, degs := s.groupKeyDegrees()
	return len(degs)
}

// AutoThreshold derives a high/low-degree cut from the sampled group-size
// distribution: the 98th percentile of estimated degrees, clamped to at
// least 2 so degree-1 keys never land in the high branch. The PowerLyra
// recipe the hybrid-cut workflow hard-codes (threshold 200 for its graphs)
// is exactly this kind of tail cut; the percentile form adapts it to
// whatever skew the actual input shows.
func (s *InputStats) AutoThreshold() int64 {
	_, degs := s.groupKeyDegrees()
	if len(degs) == 0 {
		return 2
	}
	sorted := append([]int64(nil), degs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted) * 98 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	thr := sorted[idx]
	if thr < 2 {
		thr = 2
	}
	return thr
}
