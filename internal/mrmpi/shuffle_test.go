package mrmpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/spill"
	"repro/internal/vtime"
)

// shuffleRun captures everything a shuffle identity check compares.
type shuffleRun struct {
	pages    [][]byte
	makespan vtime.Duration
	wire     int64
	messages int64
	spill    spill.Stats
}

// runShuffle executes body on a cluster, optionally under a spill budget and
// with the transport codec toggled, and snapshots the per-rank partitions.
func runShuffleJob(t *testing.T, nodes int, budget int64, codec bool, plan *faults.Plan, body func(mr *MapReduce) error) shuffleRun {
	t.Helper()
	prev := SetShuffleCompress(codec)
	defer SetShuffleCompress(prev)
	cl := cluster.New(cluster.DefaultConfig(nodes))
	if plan != nil {
		cl.SetFaultPlan(plan)
	}
	base := t.TempDir()
	var res shuffleRun
	res.pages = make([][]byte, cl.Size())
	var mu sync.Mutex
	_, err := cl.Run(func(r *cluster.Rank) error {
		mr := New(mpi.NewComm(r))
		if budget > 0 {
			st, err := spill.Open(spill.Config{
				Dir:    base,
				Rank:   r.ID(),
				Node:   r.Node(),
				Charge: func(d vtime.Duration) { r.Clock().Advance(d) },
			})
			if err != nil {
				return err
			}
			defer func() {
				mu.Lock()
				res.spill.Add(st.Stats())
				mu.Unlock()
				st.Close()
			}()
			mr.SetSpill(st, budget)
		}
		if err := body(mr); err != nil {
			return err
		}
		final, err := mr.Materialize()
		if err != nil {
			return err
		}
		mu.Lock()
		res.pages[r.ID()] = final.AppendEncoded(nil)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res.makespan = cl.Makespan()
	res.wire = cl.Stats().BytesOnWire
	res.messages = cl.Stats().Messages
	return res
}

func requireSameRun(t *testing.T, what string, ref, got shuffleRun) {
	t.Helper()
	for rank := range ref.pages {
		if !bytes.Equal(ref.pages[rank], got.pages[rank]) {
			t.Fatalf("%s: rank %d partition diverged (%d vs %d bytes)",
				what, rank, len(got.pages[rank]), len(ref.pages[rank]))
		}
	}
	if ref.makespan != got.makespan {
		t.Fatalf("%s: makespan %v, want %v", what, got.makespan, ref.makespan)
	}
	if ref.wire != got.wire {
		t.Fatalf("%s: wire bytes %d, want %d", what, got.wire, ref.wire)
	}
}

// hotDestProgram funnels ~340KiB from every rank toward the single owner of
// one hot key — well past the 256KiB shuffle page size, so a spilled sender
// must carve its frame into a segmented multi-page message.
func hotDestProgram(mr *MapReduce) error {
	if err := mr.Map(func(emit Emitter) error {
		val := make([]byte, 1024)
		for i := range val {
			val[i] = byte(i)
		}
		for i := 0; i < 340; i++ {
			binary.LittleEndian.PutUint32(val, uint32(mr.Comm().Rank()*1000+i))
			emit([]byte("hot!"), val)
		}
		// A sprinkle of cold keys keeps the other destinations non-empty.
		for i := 0; i < 40; i++ {
			emit([]byte(fmt.Sprintf("cold-%03d", i)), []byte{byte(i)})
		}
		return nil
	}); err != nil {
		return err
	}
	return mr.Aggregate(HashPartitioner)
}

// TestCarvedFrameIdentity pins the segmented-frame path that no fixed-budget
// pipeline test reaches: a spilled sender whose per-destination payload
// exceeds shufflePageBytes ships a carved multi-page frame, and the result —
// partitions, makespan, wire traffic — is bit-identical to the in-memory
// single-page run.
func TestCarvedFrameIdentity(t *testing.T) {
	ref := runShuffleJob(t, 2, 0, false, nil, hotDestProgram)
	ooc := runShuffleJob(t, 2, 8<<10, false, nil, hotDestProgram)
	if ooc.spill.SpillPages == 0 {
		t.Fatalf("hot-destination run never spilled: %+v", ooc.spill)
	}
	// The construction must actually exceed one shuffle page per frame.
	if perDest := 340 * (1024 + 16); perDest < shufflePageBytes {
		t.Fatalf("test shape too small to carve: %d < %d", perDest, shufflePageBytes)
	}
	requireSameRun(t, "carved vs contiguous", ref, ooc)
	if ref.messages != ooc.messages {
		t.Fatalf("batched delivery count diverged: %d vs %d messages", ref.messages, ooc.messages)
	}
}

// Mirrors of the core engine's value/row/group entry encoders (see
// internal/core), so the shuffle carries exactly the group-shaped bytes the
// codec targets.
func encIntVal(v int64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{0x00}, uint64(v))
}

func encStrVal(s string) []byte {
	out := binary.LittleEndian.AppendUint32([]byte{0x01}, uint32(len(s)))
	return append(out, s...)
}

func encRowVal(cols ...[]byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(cols)))
	for _, c := range cols {
		out = append(out, c...)
	}
	return out
}

func encGroupVal(gkey []byte, rows ...[]byte) []byte {
	out := append([]byte{0x01}, gkey...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rows)))
	for _, r := range rows {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r)))
		out = append(out, r...)
	}
	return out
}

// groupShuffleProgram emits grouped triples in the distribute job's wire
// shape: values are packed groups with constant columns the codec strips.
func groupShuffleProgram(mr *MapReduce) error {
	if err := mr.Map(func(emit Emitter) error {
		me := mr.Comm().Rank()
		for i := 0; i < 400; i++ {
			key := binary.LittleEndian.AppendUint32(nil, uint32(i%31))
			gk := encStrVal(fmt.Sprintf("in-vertex-%06d", me*1000+i))
			n := 2 + i%5
			rows := make([][]byte, n)
			for j := range rows {
				rows[j] = encRowVal(encStrVal(fmt.Sprintf("out-%03d", j)), gk, encIntVal(int64(n)))
			}
			emit(key, encGroupVal(gk, rows...))
		}
		return nil
	}); err != nil {
		return err
	}
	return mr.Aggregate(HashPartitioner)
}

// TestShuffleCompressLosslessAndSmaller pins the transport codec contract:
// codec-on moves strictly fewer interconnect bytes on group-shaped traffic,
// the message count is unchanged (still one frame per pair), the resulting
// partitions are byte-identical, and a replay is deterministic.
func TestShuffleCompressLosslessAndSmaller(t *testing.T) {
	off := runShuffleJob(t, 4, 0, false, nil, groupShuffleProgram)
	on := runShuffleJob(t, 4, 0, true, nil, groupShuffleProgram)
	on2 := runShuffleJob(t, 4, 0, true, nil, groupShuffleProgram)

	if on.wire >= off.wire {
		t.Fatalf("codec on moved %d wire bytes, codec off %d — no saving", on.wire, off.wire)
	}
	if on.messages != off.messages {
		t.Fatalf("codec changed message count: %d vs %d", on.messages, off.messages)
	}
	for rank := range off.pages {
		if !bytes.Equal(off.pages[rank], on.pages[rank]) {
			t.Fatalf("rank %d partition diverged under the codec", rank)
		}
	}
	requireSameRun(t, "codec replay", on, on2)
}

// TestShuffleCompressUnderBudget: carved multi-page frames bypass the codec
// (it only packs single-page frames) but still travel tagged, so a spilled
// codec-on run lands on exactly the codec-off partitions and replays
// deterministically. The unbudgeted codec-on run, whose hot frame stays a
// single page, must genuinely compress it — pinning that the budget is what
// disables packing, not the codec gate.
func TestShuffleCompressUnderBudget(t *testing.T) {
	off := runShuffleJob(t, 2, 0, false, nil, hotDestProgram)
	onRef := runShuffleJob(t, 2, 0, true, nil, hotDestProgram)
	if onRef.wire >= off.wire {
		t.Fatalf("single-page hot frame did not compress: %d vs %d wire bytes", onRef.wire, off.wire)
	}
	on := runShuffleJob(t, 2, 8<<10, true, nil, hotDestProgram)
	on2 := runShuffleJob(t, 2, 8<<10, true, nil, hotDestProgram)
	if on.spill.SpillPages == 0 {
		t.Fatalf("budgeted run never spilled: %+v", on.spill)
	}
	for rank := range off.pages {
		if !bytes.Equal(off.pages[rank], on.pages[rank]) {
			t.Fatalf("rank %d partition diverged (codec + budget)", rank)
		}
	}
	requireSameRun(t, "codec+budget replay", on, on2)
}

// TestBatchedShuffleUnderFaultsDeterministic: the batched frames ride the
// same retry/integrity machinery as scalar sends — under a hostile link
// (drops, dups, delays, corruption) the shuffle completes, and two runs with
// the same fault seed are bit-exact.
func TestBatchedShuffleUnderFaultsDeterministic(t *testing.T) {
	plan := func() *faults.Plan {
		return &faults.Plan{Seed: 616, Link: faults.Link{
			DropProb: 0.1, DupProb: 0.1, DelayProb: 0.2, Delay: 100 * vtime.Microsecond, CorruptProb: 0.1,
		}}
	}
	clean := runShuffleJob(t, 4, 0, false, nil, groupShuffleProgram)
	f1 := runShuffleJob(t, 4, 0, false, plan(), groupShuffleProgram)
	f2 := runShuffleJob(t, 4, 0, false, plan(), groupShuffleProgram)
	requireSameRun(t, "faulty replay", f1, f2)
	for rank := range clean.pages {
		if !bytes.Equal(clean.pages[rank], f1.pages[rank]) {
			t.Fatalf("rank %d partition diverged under link faults", rank)
		}
	}
	if f1.wire <= clean.wire {
		t.Fatalf("faulty run moved %d wire bytes, clean run %d — retries cost nothing?", f1.wire, clean.wire)
	}
	// And with the codec on top of the faults: still deterministic, still
	// the same partitions.
	c1 := runShuffleJob(t, 4, 0, true, plan(), groupShuffleProgram)
	c2 := runShuffleJob(t, 4, 0, true, plan(), groupShuffleProgram)
	requireSameRun(t, "codec+faults replay", c1, c2)
	for rank := range clean.pages {
		if !bytes.Equal(clean.pages[rank], c1.pages[rank]) {
			t.Fatalf("rank %d partition diverged under codec+faults", rank)
		}
	}
}
