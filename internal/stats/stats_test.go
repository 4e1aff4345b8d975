package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAccessCounterBasics(t *testing.T) {
	c := NewAccessCounter()
	c.Add(5, 3)
	c.Add(7, 1)
	c.Add(5, 2)
	c.Add(9, 0)  // ignored
	c.Add(9, -1) // ignored
	if c.Total() != 6 || c.Distinct() != 2 {
		t.Fatalf("total=%d distinct=%d", c.Total(), c.Distinct())
	}
	if c.Count(5) != 5 || c.Count(7) != 1 || c.Count(99) != 0 {
		t.Fatal("wrong counts")
	}
}

func TestRankedOrderDeterministic(t *testing.T) {
	c := NewAccessCounter()
	c.Add(10, 2)
	c.Add(3, 2)
	c.Add(7, 5)
	r := c.Ranked()
	want := []BlockCount{{7, 5}, {3, 2}, {10, 2}}
	if len(r) != 3 {
		t.Fatalf("ranked = %v", r)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranked = %v, want %v", r, want)
		}
	}
}

func TestTopN(t *testing.T) {
	c := NewAccessCounter()
	for i := int64(0); i < 10; i++ {
		c.Add(i, int(i)+1)
	}
	top := c.TopN(3)
	if len(top) != 3 || top[0].Block != 9 || top[2].Block != 7 {
		t.Fatalf("TopN = %v", top)
	}
	if got := c.TopN(100); len(got) != 10 {
		t.Fatalf("TopN over-asks = %d entries", len(got))
	}
}

// TestAccessCounterMatchesMap checks the batched counter against a map
// over enough accesses for many sorted batches, with reads (which tally
// a partial batch) interleaved with the adds.
func TestAccessCounterMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewAccessCounter()
	ref := map[int64]int{}
	for i := 0; i < 20*minBatch; i++ {
		b := int64(rng.ExpFloat64()*3000) - 50 // skewed, a few negative
		n := 1 + rng.Intn(3)
		c.Add(b, n)
		ref[b] += n
		if rng.Intn(5000) == 0 {
			probe := int64(rng.Intn(4000) - 100)
			if c.Count(probe) != ref[probe] || c.Distinct() != len(ref) {
				t.Fatalf("after %d adds: Count(%d) = %d, Distinct = %d; want %d, %d",
					i+1, probe, c.Count(probe), c.Distinct(), ref[probe], len(ref))
			}
		}
	}
	want := make([]BlockCount, 0, len(ref))
	var total uint64
	for b, n := range ref {
		want = append(want, BlockCount{Block: b, Count: n})
		total += uint64(n)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Count != want[j].Count {
			return want[i].Count > want[j].Count
		}
		return want[i].Block < want[j].Block
	})
	got := c.Ranked()
	if c.Total() != total || len(got) != len(want) {
		t.Fatalf("total %d, %d blocks; want %d, %d", c.Total(), len(got), total, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranked[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: Ranked is sorted by count desc then block asc and preserves
// totals.
func TestPropertyRankedSorted(t *testing.T) {
	f := func(raw []uint8) bool {
		c := NewAccessCounter()
		var total uint64
		for _, v := range raw {
			c.Add(int64(v%32), int(v%5)+1)
			total += uint64(v%5) + 1
		}
		r := c.Ranked()
		var sum uint64
		for i, bc := range r {
			sum += uint64(bc.Count)
			if i > 0 {
				prev := r[i-1]
				if bc.Count > prev.Count {
					return false
				}
				if bc.Count == prev.Count && bc.Block <= prev.Block {
					return false
				}
			}
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 || s.N() != 0 {
		t.Fatal("empty summary non-zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.N() != 8 || s.Mean() != 5 || s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("summary = %v", s.String())
	}
	if math.Abs(s.StdDev()-2) > 1e-12 {
		t.Fatalf("StdDev = %v, want 2", s.StdDev())
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, v := range []float64{0.5, 1.5, 1.7, 9.9, -3, 42} {
		h.Observe(v)
	}
	if h.N() != 6 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Bucket(0) != 2 { // 0.5 and clamped -3
		t.Fatalf("bucket 0 = %d", h.Bucket(0))
	}
	if h.Bucket(1) != 2 {
		t.Fatalf("bucket 1 = %d", h.Bucket(1))
	}
	if h.Bucket(9) != 2 { // 9.9 and clamped 42
		t.Fatalf("bucket 9 = %d", h.Bucket(9))
	}
	if h.Buckets() != 10 {
		t.Fatalf("Buckets = %d", h.Buckets())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	if q := h.Quantile(0.5); math.Abs(q-50.5) > 1.0 {
		t.Fatalf("median = %v", q)
	}
	if q := h.Quantile(0.99); q < 95 {
		t.Fatalf("p99 = %v", q)
	}
	// No observations means no quantile: NaN, never a bucket edge that
	// reads like a measured value (regression guard — this used to
	// return 0, indistinguishable from a true zero-latency population).
	empty := NewHistogram(0, 1, 4)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := empty.Quantile(q); !math.IsNaN(v) {
			t.Fatalf("empty Quantile(%v) = %v, want NaN", q, v)
		}
	}
}

func TestHistogramBadConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(10, 10, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramObserveNaNDropped(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Observe(math.NaN())
	if h.N() != 0 {
		t.Fatalf("NaN was counted: N = %d", h.N())
	}
	for i := 0; i < h.Buckets(); i++ {
		if h.Bucket(i) != 0 {
			t.Fatalf("NaN landed in bucket %d", i)
		}
	}
	h.Observe(5)
	if h.N() != 1 {
		t.Fatalf("real sample after NaN: N = %d", h.N())
	}
}

func TestHistogramObserveInfClamped(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if h.N() != 2 {
		t.Fatalf("N = %d, want 2", h.N())
	}
	if h.Bucket(9) != 1 {
		t.Fatalf("+Inf not in top bucket: %d", h.Bucket(9))
	}
	if h.Bucket(0) != 1 {
		t.Fatalf("-Inf not in bottom bucket: %d", h.Bucket(0))
	}
}

func TestHistogramQuantileBoundaries(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for _, v := range []float64{25, 35, 75} {
		h.Observe(v)
	}
	// q=0 is the midpoint of the first non-empty bucket ([20,30) -> 25).
	if q := h.Quantile(0); q != 25 {
		t.Fatalf("Quantile(0) = %v, want 25", q)
	}
	// q=1 is Hi, the histogram's upper edge.
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("Quantile(1) = %v, want 100", q)
	}
	// Monotonicity across the full range.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}
