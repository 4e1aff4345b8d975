package host

import (
	"math/rand"
	"testing"

	"diskthru/internal/bufcache"
	"diskthru/internal/disk"
	"diskthru/internal/dist"
	"diskthru/internal/trace"
)

// bufRig is newRig's 2-disk array with hdcBytes of HDC per controller
// and a layout of ten 4-block files, the fixture of the buffer-cache
// stage tests.
func bufRig(t *testing.T, hdcBytes int) *rig {
	t.Helper()
	r := newRig(t, 2, 32, func(c *disk.Config) { c.HDCBytes = hdcBytes })
	for i := 0; i < 10; i++ {
		if _, err := r.layout.Alloc(4, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func fileTrace(n int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, trace.Record{File: int32(i % 10), Blocks: 4})
	}
	return tr
}

// hitRate reports a buffer cache's block hit rate.
func hitRate(c *bufcache.Cache) float64 {
	return float64(c.Hits()) / float64(c.Hits()+c.Misses())
}

func TestLiveAbsorbsRepeatAccesses(t *testing.T) {
	r := bufRig(t, 0)
	h := r.host(t, Config{Streams: 1, CoalesceProb: 1, BufferCacheBlocks: 64})
	end := h.Replay(fileTrace(30))
	if end <= 0 {
		t.Fatal("no time elapsed")
	}
	// 10 distinct files fit the 64-block cache: 20 of 30 records absorb.
	if h.Absorbed != 20 {
		t.Fatalf("Absorbed = %d, want 20", h.Absorbed)
	}
	if hr := hitRate(h.BufferCache()); hr <= 0.5 {
		t.Fatalf("cache hit rate = %v", hr)
	}
}

func TestLiveDirtyEvictionsReachDisks(t *testing.T) {
	r := bufRig(t, 0)
	h := r.host(t, Config{Streams: 1, CoalesceProb: 1, BufferCacheBlocks: 8})
	tr := &trace.Trace{}
	// Write every file once: the 8-block cache churns, forcing dirty
	// evictions (plus the final flush).
	for i := 0; i < 10; i++ {
		tr.Records = append(tr.Records, trace.Record{File: int32(i), Blocks: 4, Write: true})
	}
	h.Replay(tr)
	var writes uint64
	for _, d := range r.disks {
		writes += d.Stats().Writes
	}
	if writes == 0 {
		t.Fatal("no dirty eviction reached a disk")
	}
	// All 40 dirty blocks eventually commit (evictions + final flush).
	var wroteBlocks uint64
	for _, d := range r.disks {
		st := d.Stats()
		wroteBlocks += st.RequestedBlocks
	}
	if wroteBlocks != 40 {
		t.Fatalf("committed %d blocks, want 40", wroteBlocks)
	}
}

func TestLiveVictimInsertAndHit(t *testing.T) {
	r := bufRig(t, 1<<20)
	h := r.host(t, Config{Streams: 1, CoalesceProb: 1, BufferCacheBlocks: 8, Victim: true})
	tr := &trace.Trace{}
	// Two passes over all files: pass one fills the cache and spills
	// clean evictions into the victim regions; pass two re-reads them.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 10; i++ {
			tr.Records = append(tr.Records, trace.Record{File: int32(i), Blocks: 4})
		}
	}
	h.Replay(tr)
	if h.VictimInserts == 0 {
		t.Fatal("no victim insertions")
	}
	var hdcHits uint64
	for _, d := range r.disks {
		st := d.Stats()
		hdcHits += st.HDCReadHits
	}
	if hdcHits == 0 {
		t.Fatal("victim region never served a read")
	}
}

func TestLiveVictimFIFOAgesOut(t *testing.T) {
	// Victim capacity of 4 blocks per disk: inserting many clean
	// evictions must keep the pinned count at capacity.
	r := bufRig(t, 4*4096)
	h := r.host(t, Config{Streams: 1, CoalesceProb: 1, BufferCacheBlocks: 4, Victim: true})
	h.Replay(fileTrace(40))
	for i, d := range r.disks {
		if got := d.HDC().Len(); got > d.HDC().Capacity() {
			t.Fatalf("disk %d pinned %d of %d", i, got, d.HDC().Capacity())
		}
	}
	if h.VictimInserts < 10 {
		t.Fatalf("VictimInserts = %d, want churn", h.VictimInserts)
	}
}

func TestLiveConfigValidation(t *testing.T) {
	r := bufRig(t, 0)
	for _, cfg := range []Config{
		{Streams: 0, CoalesceProb: 0.5, BufferCacheBlocks: 8},
		{Streams: 1, CoalesceProb: -1, BufferCacheBlocks: 8},
		{Streams: 1, CoalesceProb: 0.5, BufferCacheBlocks: -1},             // negative size
		{Streams: 1, CoalesceProb: 0.5, Victim: true},                      // victim without a buffer cache
		{Streams: 1, CoalesceProb: 0.5, BufferCacheBlocks: 8, Replicas: 2}, // mirrored
	} {
		if _, err := New(r.sim, r.bus, r.disks, r.striper, r.layout, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	// Disk/striper mismatch.
	if _, err := New(r.sim, r.bus, r.disks[:1], r.striper, r.layout,
		Config{Streams: 1, BufferCacheBlocks: 8}); err == nil {
		t.Error("mismatched striper accepted")
	}
}

func TestLiveRecordPastEOFSkipped(t *testing.T) {
	r := bufRig(t, 0)
	h := r.host(t, Config{Streams: 1, CoalesceProb: 1, BufferCacheBlocks: 8})
	tr := &trace.Trace{Records: []trace.Record{
		{File: 0, Offset: 99, Blocks: 2}, // beyond EOF: dropped
		{File: 0, Offset: 0, Blocks: 4},
	}}
	h.Replay(tr)
	var reqd uint64
	for _, d := range r.disks {
		reqd += d.Stats().RequestedBlocks
	}
	if reqd != 4 {
		t.Fatalf("requested %d blocks, want 4", reqd)
	}
}

// TestBufferStageMatchesLiveReference replays random small server
// traces through Host's buffer-cache stage and through the Live
// reference loop (liveref_test.go) on identical arrays. Both must
// schedule the same events and draw the same coalescing coins, so every
// counter and every disk's statistics must agree exactly.
func TestBufferStageMatchesLiveReference(t *testing.T) {
	var absorbed, victims, hdcHits uint64
	for seed := int64(0); seed < 150; seed++ {
		rng := dist.NewRand(seed)
		hdcBlocks := []int{0, 4, 256}[rng.Intn(3)]
		cfg := Config{
			Streams:           1 + rng.Intn(8),
			CoalesceProb:      []float64{0.5, 0.87, 1}[rng.Intn(3)],
			Seed:              rng.Int63(),
			FlushHDCAtEnd:     true, // Live always flushes the HDC at the end
			BufferCacheBlocks: 4 + rng.Intn(61),
			Victim:            rng.Intn(2) == 0,
		}
		disks, unit := 1+rng.Intn(3), []int{4, 8, 32}[rng.Intn(3)]
		writes := []float64{0, 0.3, 0.7}[rng.Intn(3)]
		layoutSeed, traceSeed := rng.Int63(), rng.Int63()

		build := func() *rig {
			r := newRig(t, disks, unit, func(c *disk.Config) { c.HDCBytes = hdcBlocks * 4096 })
			frag := dist.NewRand(layoutSeed)
			for i := 0; i < 30; i++ {
				if _, err := r.layout.Alloc(1+frag.Intn(16), 0.2, frag); err != nil {
					t.Fatal(err)
				}
			}
			return r
		}
		tr := randomServerTrace(dist.NewRand(traceSeed), 300, writes)

		ref := build()
		l, err := NewLive(ref.sim, ref.bus, ref.disks, ref.striper, ref.layout, LiveConfig{
			Streams: cfg.Streams, CoalesceProb: cfg.CoalesceProb, Seed: cfg.Seed,
			CacheBlocks: cfg.BufferCacheBlocks, Victim: cfg.Victim,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := l.Replay(tr)

		got := build()
		h := got.host(t, cfg)
		end := h.Replay(tr)

		if end != want || h.IssuedRequests != l.IssuedRequests || h.Absorbed != l.Absorbed ||
			h.VictimInserts != l.VictimInserts {
			t.Fatalf("seed %d (%+v): host (end %v, issued %d, absorbed %d, victims %d), reference (%v, %d, %d, %d)",
				seed, cfg, end, h.IssuedRequests, h.Absorbed, h.VictimInserts,
				want, l.IssuedRequests, l.Absorbed, l.VictimInserts)
		}
		if hc, lc := h.BufferCache().Counters(), l.CacheCounters(); hc != lc {
			t.Fatalf("seed %d: buffer cache %+v, reference %+v", seed, hc, lc)
		}
		for i := range got.disks {
			if hs, ls := got.disks[i].Stats(), ref.disks[i].Stats(); hs != ls {
				t.Fatalf("seed %d: disk %d stats\n%+v\nreference\n%+v", seed, i, hs, ls)
			}
			hdcHits += got.disks[i].Stats().HDCReadHits
		}
		absorbed += h.Absorbed
		victims += h.VictimInserts
	}
	// The sweep must reach every part of the stage it compares.
	if absorbed == 0 || victims == 0 || hdcHits == 0 {
		t.Fatalf("sweep too tame: %d absorbed, %d victim inserts, %d HDC read hits", absorbed, victims, hdcHits)
	}
}

// randomServerTrace draws n server-level records over newRig's thirty
// files: offsets sometimes past the end of the file, writes with
// probability writes.
func randomServerTrace(rng *rand.Rand, n int, writes float64) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, trace.Record{
			File:   int32(rng.Intn(30)),
			Offset: int32(rng.Intn(20)),
			Blocks: int32(1 + rng.Intn(8)),
			Write:  rng.Float64() < writes,
		})
	}
	return tr
}
