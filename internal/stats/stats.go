// Package stats provides the small statistical containers shared by the
// workload generators and experiment drivers: per-block access counters
// (for Figure 2 and the HDC planner), log-bucketed histograms, and running
// summaries.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// AccessCounter counts accesses per logical block. It appends each
// access to a batch and, once the batch is as long as the tally (or the
// counter is read), sorts it and merges it into the tally in place.
// Counting then costs a slice append instead of a map update, and
// memory follows the distinct blocks, not the accesses.
type AccessCounter struct {
	batch  []int64      // accesses not yet tallied
	counts []BlockCount // tallied blocks, ascending
	total  uint64
}

// minBatch is the smallest batch the counter sorts at once.
const minBatch = 1 << 14

// NewAccessCounter returns an empty counter.
func NewAccessCounter() *AccessCounter { return &AccessCounter{} }

// Add records n accesses to block b.
func (c *AccessCounter) Add(b int64, n int) {
	for ; n > 0; n-- {
		c.batch = append(c.batch, b)
		c.total++
		if len(c.batch) >= max(minBatch, len(c.counts)) {
			c.tally()
		}
	}
}

// tally sorts the pending batch, merges it into the per-block counts and
// returns them in ascending block order.
func (c *AccessCounter) tally() []BlockCount {
	batch := c.batch
	if len(batch) == 0 {
		return c.counts
	}
	slices.Sort(batch)
	// Count the batch's blocks that are new to the tally, so the merge
	// can fill the grown tally from the back without a second buffer.
	fresh := 0
	for i, j := 0, 0; j < len(batch); j++ {
		if j > 0 && batch[j] == batch[j-1] {
			continue
		}
		for i < len(c.counts) && c.counts[i].Block < batch[j] {
			i++
		}
		if i == len(c.counts) || c.counts[i].Block != batch[j] {
			fresh++
		}
	}
	old := len(c.counts)
	c.counts = slices.Grow(c.counts, fresh)[:old+fresh]
	// w-i counts the new blocks still to place, so w never overtakes an
	// unread entry.
	w, i := len(c.counts)-1, old-1
	for j := len(batch) - 1; j >= 0; {
		b, k := batch[j], j
		for k > 0 && batch[k-1] == b {
			k--
		}
		n := j - k + 1
		for i >= 0 && c.counts[i].Block > b {
			c.counts[w] = c.counts[i]
			w--
			i--
		}
		if i >= 0 && c.counts[i].Block == b {
			n += c.counts[i].Count
			i--
		}
		c.counts[w] = BlockCount{Block: b, Count: n}
		w--
		j = k - 1
	}
	c.batch = batch[:0]
	return c.counts
}

// Total reports the number of recorded accesses.
func (c *AccessCounter) Total() uint64 { return c.total }

// Distinct reports how many distinct blocks were accessed.
func (c *AccessCounter) Distinct() int { return len(c.tally()) }

// Count reports the accesses to one block.
func (c *AccessCounter) Count(b int64) int {
	counts := c.tally()
	i, ok := slices.BinarySearchFunc(counts, b, func(bc BlockCount, b int64) int {
		return cmp.Compare(bc.Block, b)
	})
	if !ok {
		return 0
	}
	return counts[i].Count
}

// BlockCount pairs a block with its access count.
type BlockCount struct {
	Block int64
	Count int
}

// Ranked returns all blocks sorted by count descending, block ascending —
// the deterministic order the HDC planner pins in and Figure 2 plots.
// It is a counting sort on the count: tally lists the blocks in
// ascending order, and the sort keeps that order within each count.
func (c *AccessCounter) Ranked() []BlockCount {
	counts := c.tally()
	top := 0
	for _, bc := range counts {
		top = max(top, bc.Count)
	}
	next := make([]int, top+1) // count -> its next slot in out
	for _, bc := range counts {
		next[bc.Count]++
	}
	for n, slot := top, 0; n > 0; n-- {
		next[n], slot = slot, slot+next[n]
	}
	out := make([]BlockCount, len(counts))
	for _, bc := range counts {
		out[next[bc.Count]] = bc
		next[bc.Count]++
	}
	return out
}

// TopN returns the first n entries of Ranked (all of them if fewer).
func (c *AccessCounter) TopN(n int) []BlockCount {
	r := c.Ranked()
	if n < len(r) {
		r = r[:n]
	}
	return r
}

// Summary accumulates a running mean/min/max.
type Summary struct {
	n          int
	sum        float64
	min, max   float64
	sumSquares float64
}

// Observe adds one sample.
func (s *Summary) Observe(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSquares += v * v
}

// N reports the sample count.
func (s *Summary) N() int { return s.n }

// Mean reports the sample mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min reports the smallest sample (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max reports the largest sample (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// StdDev reports the population standard deviation (0 when empty).
func (s *Summary) StdDev() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSquares/float64(s.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// String formats the summary for reports.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g max=%.4g sd=%.4g",
		s.n, s.Mean(), s.min, s.max, s.StdDev())
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi); samples
// outside the range land in the edge buckets.
type Histogram struct {
	Lo, Hi  float64
	buckets []uint64
	n       uint64
}

// NewHistogram returns a histogram with the given bucket count.
func NewHistogram(lo, hi float64, buckets int) *Histogram {
	if buckets <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram [%v,%v)/%d", lo, hi, buckets))
	}
	return &Histogram{Lo: lo, Hi: hi, buckets: make([]uint64, buckets)}
}

// Observe adds one sample. NaN samples are dropped (converting NaN to
// int is implementation-defined, so they must never reach the bucket
// arithmetic); infinities clamp to the edge buckets.
func (h *Histogram) Observe(v float64) {
	var i int
	switch {
	case math.IsNaN(v):
		return
	case math.IsInf(v, 1):
		i = len(h.buckets) - 1
	case math.IsInf(v, -1):
		i = 0
	default:
		i = int(float64(len(h.buckets)) * (v - h.Lo) / (h.Hi - h.Lo))
	}
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.n++
}

// N reports the sample count.
func (h *Histogram) N() uint64 { return h.n }

// Bucket reports the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// Buckets reports the bucket count.
func (h *Histogram) Buckets() int { return len(h.buckets) }

// Quantile reports an approximate q-quantile (bucket midpoint). The
// boundaries are defined: q=0 is the midpoint of the first non-empty
// bucket and q=1 is Hi, the histogram's upper edge. With no
// observations there is no quantile, so the result is NaN — not a
// bucket edge a caller could mistake for a measured zero-latency; the
// table renderer prints NaN cells as "-".
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := uint64(q * float64(h.n))
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			width := (h.Hi - h.Lo) / float64(len(h.buckets))
			return h.Lo + (float64(i)+0.5)*width
		}
	}
	return h.Hi
}
