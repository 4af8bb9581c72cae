package main

import (
	"sync"
	"time"
)

// calRefMS is the wall time of one host.calib kernel run on the reference
// machine (2 cores, Go 1.24, measured when this benchmark was defined).
// Every wall-clock end-to-end metric is reported "at reference machine
// speed": multiplied by calRefMS / (the kernel's time right before the
// segment). It is a frozen constant: re-tuning it would move every baseline.
const calRefMS = 21.0

const (
	calWords   = 1 << 20 // 8 MiB of uint64 per core: larger than L2, so the gathers miss
	calFills   = 4       // xorshift fill passes: ALU and streaming writes, about 9 ms
	calGathers = 29000   // dependent loads per gather pass
	calPasses  = 3       // gather passes: cache and memory latency, about 12 ms
)

// calibrator is the host.calib reference kernel: one worker per core, each
// xorshift-fills its own preallocated 8 MiB buffer and then chases
// calPasses dependent random-gather passes through a fixed index table. It
// allocates nothing after construction, so the workload's live heap never
// enters its timing through the garbage collector.
//
// The two halves are sized on purpose. What drifts on a shared box is mostly
// the memory system (a pure ALU loop moved by 1-2% while op times moved by
// 20%), and the gathers move with it about twice as much as the workloads'
// ops do, the fill hardly at all; a kernel of roughly equal parts moved by
// the same share as the ops in the measurements behind NOISE.md.
type calibrator struct {
	bufs  [][]uint64
	index []uint32
	start []chan struct{}
	done  sync.WaitGroup
	sink  []uint64
}

func newCalibrator(procs int) *calibrator {
	c := &calibrator{
		bufs:  make([][]uint64, procs),
		index: make([]uint32, calGathers),
		start: make([]chan struct{}, procs),
		sink:  make([]uint64, procs*8), // one cache line per worker
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range c.index {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.index[i] = uint32(x) & (calWords - 1)
	}
	for w := 0; w < procs; w++ {
		c.bufs[w] = make([]uint64, calWords)
		c.start[w] = make(chan struct{})
		go c.worker(w)
	}
	return c
}

func (c *calibrator) worker(w int) {
	buf := c.bufs[w]
	for range c.start[w] {
		x := uint64(w)*0x9E3779B97F4A7C15 + 88172645463325252
		for p := 0; p < calFills; p++ {
			for i := range buf {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[i] = x
			}
		}
		j := uint32(0)
		for p := 0; p < calPasses; p++ {
			for _, off := range c.index {
				// The next address depends on the value just loaded.
				j = (uint32(buf[j]) + off) & (calWords - 1)
			}
		}
		c.sink[w*8] = uint64(j)
		c.done.Done()
	}
}

// run executes the kernel once on every core and returns its wall time.
func (c *calibrator) run() time.Duration {
	c.done.Add(len(c.start))
	t0 := time.Now()
	for _, ch := range c.start {
		ch <- struct{}{}
	}
	c.done.Wait()
	return time.Since(t0)
}

// close stops the workers.
func (c *calibrator) close() {
	for _, ch := range c.start {
		close(ch)
	}
}

// scale is the factor that converts a wall time measured right after a
// kernel run of duration cal into reference-machine time.
func calScale(cal time.Duration) float64 {
	return calRefMS / (float64(cal) / float64(time.Millisecond))
}
