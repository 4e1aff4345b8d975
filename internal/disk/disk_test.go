package disk

import (
	"math"
	"testing"

	"diskthru/internal/array"
	"diskthru/internal/bus"
	"diskthru/internal/cache"
	"diskthru/internal/fslayout"
	"diskthru/internal/geom"
	"diskthru/internal/sched"
	"diskthru/internal/sim"
)

func baseConfig() Config {
	return Config{
		Geom:         geom.Ultrastar36Z15(),
		Sched:        sched.LOOK,
		CacheBytes:   4 << 20,
		SegmentBytes: 128 << 10,
		MaxSegments:  27,
		Org:          OrgSegment,
		ReadAhead:    RABlind,
	}
}

func newDisk(t *testing.T, cfg Config) (*sim.Simulator, *Disk) {
	t.Helper()
	s := sim.New()
	b := bus.New(s, bus.Ultra160())
	d, err := New(s, b, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

// read issues a synchronous-style read and runs the sim to completion,
// returning the completion time.
func read(s *sim.Simulator, d *Disk, pba int64, blocks int) sim.Time {
	var done sim.Time = -1
	d.Submit(Request{PBA: pba, Blocks: blocks, Done: func(now sim.Time) { done = now }})
	s.Run()
	return done
}

func TestReadMissPerformsMediaOp(t *testing.T) {
	s, d := newDisk(t, baseConfig())
	done := read(s, d, 100000, 4)
	if done <= 0 {
		t.Fatal("read never completed")
	}
	st := d.Stats()
	if st.Reads != 1 || st.MediaOps != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Blind read-ahead reads a full 32-block segment.
	if st.MediaBlocks != 32 {
		t.Fatalf("MediaBlocks = %d, want 32", st.MediaBlocks)
	}
	if st.RequestedBlocks != 4 {
		t.Fatalf("RequestedBlocks = %d", st.RequestedBlocks)
	}
}

func TestReadHitAfterReadAhead(t *testing.T) {
	s, d := newDisk(t, baseConfig())
	read(s, d, 100000, 4)
	t1 := s.Now()
	done := read(s, d, 100004, 4) // covered by the previous read-ahead
	st := d.Stats()
	if st.ReadHits != 1 {
		t.Fatalf("ReadHits = %d, want 1", st.ReadHits)
	}
	if st.MediaOps != 1 {
		t.Fatalf("MediaOps = %d, want 1 (hit must not touch media)", st.MediaOps)
	}
	// A hit costs only bus time: microseconds, not milliseconds.
	if done-t1 > 0.001 {
		t.Fatalf("hit took %v, want < 1 ms", done-t1)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", st.HitRate())
	}
}

func TestNoReadAheadReadsOnlyRequested(t *testing.T) {
	cfg := baseConfig()
	cfg.Org = OrgBlock
	cfg.ReadAhead = RANone
	s, d := newDisk(t, cfg)
	read(s, d, 100000, 4)
	if st := d.Stats(); st.MediaBlocks != 4 {
		t.Fatalf("MediaBlocks = %d, want 4", st.MediaBlocks)
	}
	// The next blocks were NOT prefetched.
	read(s, d, 100004, 4)
	if st := d.Stats(); st.ReadHits != 0 || st.MediaOps != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// buildBitmap lays out files of the given size (in blocks) back to back
// on a single disk and returns the FOR bitmap.
func buildBitmap(t *testing.T, fileBlocks, files int) *fslayout.Bitmap {
	t.Helper()
	l := fslayout.New(int64(fileBlocks*files) + 64)
	for i := 0; i < files; i++ {
		if _, err := l.Alloc(fileBlocks, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	return fslayout.BuildBitmaps(l, array.NewStriper(1, 1<<20))[0]
}

func TestFORStopsAtFileBoundary(t *testing.T) {
	cfg := baseConfig()
	cfg.Org = OrgBlock
	cfg.BlockEvict = cache.EvictMRU
	cfg.ReadAhead = RAFOR
	cfg.Bitmap = buildBitmap(t, 4, 100) // 16-KB files
	s, d := newDisk(t, cfg)
	read(s, d, 8, 1) // first block of the third file
	if st := d.Stats(); st.MediaBlocks != 4 {
		t.Fatalf("FOR read %d blocks, want 4 (to file end)", st.MediaBlocks)
	}
	// The rest of that file now hits.
	read(s, d, 9, 3)
	if st := d.Stats(); st.ReadHits != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestFORMidFileReadsToEnd(t *testing.T) {
	cfg := baseConfig()
	cfg.Org = OrgBlock
	cfg.BlockEvict = cache.EvictMRU
	cfg.ReadAhead = RAFOR
	cfg.Bitmap = buildBitmap(t, 8, 10)
	s, d := newDisk(t, cfg)
	read(s, d, 3, 1) // mid-first-file: blocks 3..7 remain
	if st := d.Stats(); st.MediaBlocks != 5 {
		t.Fatalf("FOR read %d blocks, want 5", st.MediaBlocks)
	}
}

func TestFORCappedAtSegmentSize(t *testing.T) {
	cfg := baseConfig()
	cfg.Org = OrgBlock
	cfg.BlockEvict = cache.EvictMRU
	cfg.ReadAhead = RAFOR
	cfg.Bitmap = buildBitmap(t, 256, 2) // 1-MB files
	s, d := newDisk(t, cfg)
	read(s, d, 0, 1)
	if st := d.Stats(); st.MediaBlocks != 32 {
		t.Fatalf("FOR read %d blocks, want cap of 32", st.MediaBlocks)
	}
}

func TestFORRequiresBitmap(t *testing.T) {
	cfg := baseConfig()
	cfg.ReadAhead = RAFOR
	s := sim.New()
	if _, err := New(s, bus.New(s, bus.Ultra160()), 0, cfg); err == nil {
		t.Fatal("FOR without bitmap accepted")
	}
}

func TestFORBitmapChargedAgainstBudget(t *testing.T) {
	cfg := baseConfig()
	cfg.Org = OrgBlock
	cfg.ReadAhead = RAFOR
	cfg.Bitmap = fslayout.NewBitmap(4718560) // ~576 KB
	_, d := newDisk(t, cfg)
	withBitmap := d.Store().Capacity()

	cfg2 := baseConfig()
	cfg2.Org = OrgBlock
	_, d2 := newDisk(t, cfg2)
	plain := d2.Store().Capacity()

	lost := plain - withBitmap
	wantLost := cfg.Bitmap.SizeBytes() / cfg.Geom.BlockSize
	if lost < wantLost-1 || lost > wantLost+1 {
		t.Fatalf("bitmap cost %d blocks of store, want ~%d", lost, wantLost)
	}
}

func TestHDCCarvesSegments(t *testing.T) {
	cfg := baseConfig()
	cfg.HDCBytes = 2 << 20
	_, d := newDisk(t, cfg)
	segs := d.Store().(*cache.SegmentStore).NumSegments()
	if segs != 16 {
		t.Fatalf("segments with 2-MB HDC = %d, want 16", segs)
	}
	if d.HDC().Capacity() != (2<<20)/4096 {
		t.Fatalf("HDC capacity = %d blocks", d.HDC().Capacity())
	}
}

func TestHDCReadHitAvoidsMedia(t *testing.T) {
	cfg := baseConfig()
	cfg.HDCBytes = 1 << 20
	s, d := newDisk(t, cfg)
	if n := d.PinBlocks([]int64{500, 501, 502}); n != 3 {
		t.Fatalf("pinned %d blocks", n)
	}
	done := read(s, d, 500, 3)
	st := d.Stats()
	if st.HDCReadHits != 1 || st.MediaOps != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if done > 0.001 {
		t.Fatalf("HDC hit took %v", done)
	}
	if st.HDCHitRate() != 1 {
		t.Fatalf("HDCHitRate = %v", st.HDCHitRate())
	}
}

func TestHDCWriteAbsorbedAndFlushed(t *testing.T) {
	cfg := baseConfig()
	cfg.HDCBytes = 1 << 20
	s, d := newDisk(t, cfg)
	d.PinBlocks([]int64{700})
	var wrote sim.Time = -1
	d.Submit(Request{PBA: 700, Blocks: 1, Write: true, Done: func(now sim.Time) { wrote = now }})
	s.Run()
	st := d.Stats()
	if st.HDCWriteHits != 1 || st.MediaOps != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if wrote > 0.001 {
		t.Fatalf("absorbed write took %v", wrote)
	}
	if d.HDC().DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", d.HDC().DirtyCount())
	}
	var flushed bool
	d.FlushHDC(func(sim.Time) { flushed = true })
	s.Run()
	if !flushed {
		t.Fatal("flush completion never fired")
	}
	if st := d.Stats(); st.MediaOps != 1 {
		t.Fatalf("flush did not write media: %+v", st)
	}
	if d.HDC().DirtyCount() != 0 {
		t.Fatal("dirty flag survived flush")
	}
}

func TestFlushHDCGroupsContiguousRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.HDCBytes = 1 << 20
	s, d := newDisk(t, cfg)
	d.PinBlocks([]int64{10, 11, 12, 50})
	for _, b := range []int64{10, 11, 12, 50} {
		d.Submit(Request{PBA: b, Blocks: 1, Write: true})
	}
	s.Run()
	d.FlushHDC(nil)
	s.Run()
	if st := d.Stats(); st.MediaOps != 2 {
		t.Fatalf("flush used %d media ops, want 2 (one per run)", st.MediaOps)
	}
}

func TestFlushHDCEmptyFiresDone(t *testing.T) {
	cfg := baseConfig()
	cfg.HDCBytes = 1 << 20
	s, d := newDisk(t, cfg)
	var fired bool
	d.FlushHDC(func(sim.Time) { fired = true })
	s.Run()
	if !fired {
		t.Fatal("done not fired for empty flush")
	}
}

func TestWriteThroughUnpinned(t *testing.T) {
	s, d := newDisk(t, baseConfig())
	var done sim.Time = -1
	d.Submit(Request{PBA: 2000000, Blocks: 2, Write: true, Done: func(now sim.Time) { done = now }})
	s.Run()
	st := d.Stats()
	if st.Writes != 1 || st.MediaOps != 1 || st.MediaBlocks != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Block 2 000 000 is ~4500 cylinders in: the long seek alone is ~4 ms.
	if done < 0.004 {
		t.Fatalf("write completed suspiciously fast: %v", done)
	}
}

func TestLateHitWhileQueued(t *testing.T) {
	s, d := newDisk(t, baseConfig())
	completions := 0
	// Two overlapping reads submitted back to back: the second misses at
	// submit (nothing cached yet) but is fully covered by the first
	// miss's read-ahead by the time it is dequeued.
	s.At(0, func(sim.Time) {
		d.Submit(Request{PBA: 200000, Blocks: 4, Done: func(sim.Time) { completions++ }})
		d.Submit(Request{PBA: 200004, Blocks: 4, Done: func(sim.Time) { completions++ }})
	})
	s.Run()
	st := d.Stats()
	if completions != 2 {
		t.Fatalf("completions = %d", completions)
	}
	if st.LateHits != 1 || st.MediaOps != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSegmentThrashingVsBlockCache(t *testing.T) {
	// With more concurrent streams than segments, the conventional cache
	// thrashes; a block cache with the same bytes keeps more files. This
	// mirrors the hit-rate argument of section 4.
	run := func(org Org) float64 {
		cfg := baseConfig()
		cfg.Org = org
		cfg.BlockEvict = cache.EvictMRU
		cfg.ReadAhead = RANone // isolate the organization effect
		s := sim.New()
		b := bus.New(s, bus.Ultra160())
		d, err := New(s, b, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// 40 files of 4 blocks, read twice each round-robin. 40 files x 4
		// blocks = 160 blocks fits the block store but needs 40 > 27
		// segments.
		for round := 0; round < 2; round++ {
			for f := int64(0); f < 40; f++ {
				d.Submit(Request{PBA: f * 4, Blocks: 4})
				s.Run()
			}
		}
		return d.Stats().HitRate()
	}
	seg, blk := run(OrgSegment), run(OrgBlock)
	if blk <= seg {
		t.Fatalf("block cache hit rate %v not above segment %v under thrash", blk, seg)
	}
}

func TestStatsHitRateZeroWhenIdle(t *testing.T) {
	var st Stats
	if st.HitRate() != 0 || st.HDCHitRate() != 0 || st.Accesses() != 0 {
		t.Fatal("idle stats non-zero")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.CacheBytes = 0 },
		func(c *Config) { c.SegmentBytes = 1000 },
		func(c *Config) { c.MaxSegments = 0 },
		func(c *Config) { c.HDCBytes = -1 },
		func(c *Config) { c.HDCBytes = c.CacheBytes }, // no store room left
	}
	for i, mutate := range bad {
		cfg := baseConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSubmitZeroBlocksPanics(t *testing.T) {
	_, d := newDisk(t, baseConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.Submit(Request{PBA: 0, Blocks: 0})
}

func TestBusyTimeAccumulates(t *testing.T) {
	s, d := newDisk(t, baseConfig())
	read(s, d, 300000, 4)
	st := d.Stats()
	if st.BusyTime() <= 0 {
		t.Fatal("no busy time recorded")
	}
	if math.Abs(st.BusyTime()-(st.SeekTime+st.RotTime+st.TransferTime)) > 1e-12 {
		t.Fatal("BusyTime != sum of parts")
	}
}

func TestReadAheadStringNames(t *testing.T) {
	if RABlind.String() != "blind" || RANone.String() != "none" || RAFOR.String() != "FOR" {
		t.Fatal("bad names")
	}
}

// A FOR read at the very end of the disk must clamp, not panic.
func TestReadAheadClampsAtDiskEnd(t *testing.T) {
	cfg := baseConfig()
	s, d := newDisk(t, cfg)
	last := cfg.Geom.Blocks() - 2
	done := read(s, d, last, 2)
	if done <= 0 {
		t.Fatal("end-of-disk read never completed")
	}
	if st := d.Stats(); st.MediaBlocks != 2 {
		t.Fatalf("MediaBlocks = %d, want 2 (clamped)", st.MediaBlocks)
	}
}

// TestBusWritesAllocFree: a write that misses the pinned region crosses
// the bus before it reaches the queue. Every write of a mixed workload
// takes that path, so in steady state it must allocate nothing: the
// drive keeps its writes on the bus in a reused FIFO behind one
// pre-bound arrival event instead of a closure per write.
func TestBusWritesAllocFree(t *testing.T) {
	s, d := newDisk(t, baseConfig())
	done := func(sim.Time) {}
	pba := int64(1000)
	burst := func() {
		for i := 0; i < 16; i++ {
			d.Submit(Request{PBA: pba, Blocks: 2, Write: true, Done: done})
			pba += 5000
		}
		s.Run()
	}
	for i := 0; i < 4; i++ {
		burst()
	}
	if avg := testing.AllocsPerRun(20, burst); avg > 0 {
		t.Errorf("16 bus-crossing writes allocate %.1f times; want 0", avg)
	}
	if st := d.Stats(); st.Writes != 16*(4+21) || st.MediaOps != st.Writes {
		t.Errorf("writes = %d, media ops = %d; want every write committed to media", st.Writes, st.MediaOps)
	}
}
