package host

// This file keeps the Live replay loop that Host's buffer-cache stage
// replaced, unchanged, as the reference model of the differential test
// in bufstage_test.go. It is built only into the package's tests.

import (
	"fmt"
	"math/rand"

	"diskthru/internal/array"
	"diskthru/internal/bufcache"
	"diskthru/internal/bus"
	"diskthru/internal/disk"
	"diskthru/internal/dist"
	"diskthru/internal/fslayout"
	"diskthru/internal/sim"
	"diskthru/internal/trace"
)

// LiveConfig tunes the live replay mode: the host buffer cache is
// simulated inside the run, so host-managed HDC policies can react to
// cache events — in particular the array-wide victim cache the paper
// proposes as a use of HDC (section 5).
type LiveConfig struct {
	// Streams is the number of concurrent server threads.
	Streams int
	// CoalesceProb is the per-junction request-coalescing probability.
	CoalesceProb float64
	// Seed drives the coalescing coin flips.
	Seed int64
	// CacheBlocks is the host buffer cache capacity in blocks.
	CacheBlocks int
	// Victim manages each controller's HDC region as a FIFO victim
	// cache: blocks evicted clean from the buffer cache are shipped to
	// their disk's controller and pinned; re-reads hit there instead of
	// the platters.
	Victim bool
}

// Validate reports configuration errors.
func (c LiveConfig) Validate() error {
	if c.Streams <= 0 {
		return fmt.Errorf("host: %d streams", c.Streams)
	}
	if c.CoalesceProb < 0 || c.CoalesceProb > 1 {
		return fmt.Errorf("host: coalesce probability %v", c.CoalesceProb)
	}
	if c.CacheBlocks <= 0 {
		return fmt.Errorf("host: buffer cache of %d blocks", c.CacheBlocks)
	}
	return nil
}

// Live replays server-level traces with the buffer cache in the loop.
type Live struct {
	cfg     LiveConfig
	sim     *sim.Simulator
	bus     *bus.Bus
	disks   []*disk.Disk
	striper array.Striper
	layout  *fslayout.Layout
	rng     *rand.Rand
	cache   *bufcache.Cache

	src            source
	active         int // streams still replaying
	lastCompletion sim.Time

	// victimFIFO orders each disk's pinned victim blocks for
	// replacement.
	victimFIFO [][]int64

	// Absorbed counts server accesses served entirely from the buffer
	// cache; IssuedRequests counts per-disk operations; VictimInserts
	// counts blocks shipped to controller victim regions.
	Absorbed       uint64
	IssuedRequests uint64
	VictimInserts  uint64
}

// NewLive binds a live host to its array.
func NewLive(s *sim.Simulator, b *bus.Bus, disks []*disk.Disk, striper array.Striper,
	layout *fslayout.Layout, cfg LiveConfig) (*Live, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(disks) != striper.Disks {
		return nil, fmt.Errorf("host: %d disks but striper expects %d (live mode is unmirrored)",
			len(disks), striper.Disks)
	}
	return &Live{
		cfg:        cfg,
		sim:        s,
		bus:        b,
		disks:      disks,
		striper:    striper,
		layout:     layout,
		rng:        dist.NewRand(cfg.Seed),
		cache:      bufcache.New(cfg.CacheBlocks),
		victimFIFO: make([][]int64, len(disks)),
	}, nil
}

// Replay runs the server-level trace and returns the makespan. The
// final dirty-cache flush is charged to the run, mirroring the offline
// mode's end-of-run flush.
func (l *Live) Replay(server *trace.Trace) sim.Time {
	l.src = source{next: server.Source()}
	l.lastCompletion = 0
	// Every stream counts as active before the first pulls, as in the
	// offline closed loop, so the replay drains exactly once.
	l.active = l.cfg.Streams
	for i := 0; i < l.cfg.Streams; i++ {
		l.startNext()
	}
	l.sim.Run()
	return l.lastCompletion
}

// CacheCounters snapshots the host buffer cache, as a telemetry-sampler
// callback.
func (l *Live) CacheCounters() bufcache.Counters { return l.cache.Counters() }

// Active reports streams still replaying records, for the sampler.
func (l *Live) Active() int { return l.active }

// Issued reports per-disk requests submitted so far, for the sampler.
func (l *Live) Issued() uint64 { return l.IssuedRequests }

// CacheHitRate reports the host buffer cache's hit rate over the run.
func (l *Live) CacheHitRate() float64 {
	total := l.cache.Hits() + l.cache.Misses()
	if total == 0 {
		return 0
	}
	return float64(l.cache.Hits()) / float64(total)
}

func (l *Live) stamp(now sim.Time) {
	if now > l.lastCompletion {
		l.lastCompletion = now
	}
}

// startNext advances one stream. Records fully absorbed by the buffer
// cache complete instantly; only disk reads block the stream.
func (l *Live) startNext() {
	for {
		rec, ok := l.src.pull()
		if !ok {
			l.active--
			if l.active == 0 {
				l.onDrained()
			}
			return
		}
		missRuns := l.runCacheAccesses(rec)
		if len(missRuns) == 0 {
			l.Absorbed++
			l.stamp(l.sim.Now())
			continue
		}
		var reqs []subRequest
		for _, run := range missRuns {
			for _, ar := range l.striper.Split(run.start, run.count) {
				reqs = splitRun(reqs, ar, l.rng, l.cfg.CoalesceProb)
			}
		}
		remaining := len(reqs)
		done := func(now sim.Time) {
			remaining--
			if remaining == 0 {
				l.stamp(now)
				l.startNext()
			}
		}
		for _, r := range reqs {
			l.IssuedRequests++
			l.disks[r.disk].Submit(disk.Request{
				PBA: r.pba, Blocks: r.blocks, Write: false, Done: done,
			})
		}
		return
	}
}

type logicalRun struct {
	start int64
	count int
}

// runCacheAccesses pushes one record's blocks through the buffer cache,
// handling evictions, and returns the logically contiguous runs of read
// misses that must come from the array.
func (l *Live) runCacheAccesses(rec trace.Record) []logicalRun {
	blocks := l.layout.FileBlocks(int(rec.File))
	lo := int(rec.Offset)
	hi := lo + int(rec.Blocks)
	if lo >= len(blocks) {
		return nil
	}
	if hi > len(blocks) {
		hi = len(blocks)
	}
	var runs []logicalRun
	for _, b := range blocks[lo:hi] {
		miss, ev := l.cache.Access(b, rec.Write)
		if ev.Happened {
			l.onEvict(ev)
		}
		// A read miss whose block sits pinned in a victim region is
		// still issued to the disk — it completes as an HDC hit there.
		// The now-redundant pin ages out of the FIFO naturally.
		if !miss || rec.Write {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].start+int64(runs[n-1].count) == b {
			runs[n-1].count++
		} else {
			runs = append(runs, logicalRun{start: b, count: 1})
		}
	}
	return runs
}

// onEvict handles one buffer-cache eviction: dirty blocks write back to
// the array in the background; clean ones feed the victim regions.
func (l *Live) onEvict(ev bufcache.Eviction) {
	d, pba := l.striper.Locate(ev.Block)
	if ev.Dirty {
		l.IssuedRequests++
		l.disks[d].Submit(disk.Request{PBA: pba, Blocks: 1, Write: true, Done: nil})
		return
	}
	if !l.cfg.Victim {
		return
	}
	l.victimInsert(d, pba)
}

// victimInsert ships a clean evicted block to its controller and pins
// it, aging out the oldest victim when the region is full. The data
// crosses the bus (host memory -> controller), like pin_blk on a block
// the host already holds.
func (l *Live) victimInsert(d int, pba int64) {
	hdc := l.disks[d].HDC()
	if hdc.Capacity() == 0 {
		return
	}
	if hdc.Contains(pba) {
		return // already resident (re-eviction of a victim-served block)
	}
	for hdc.Len() >= hdc.Capacity() && len(l.victimFIFO[d]) > 0 {
		oldest := l.victimFIFO[d][0]
		l.victimFIFO[d] = l.victimFIFO[d][1:]
		if was, dirty := hdc.Unpin(oldest); was && dirty {
			// A writeback dirtied this victim while pinned; commit it.
			l.IssuedRequests++
			l.disks[d].Submit(disk.Request{PBA: oldest, Blocks: 1, Write: true, Done: nil})
		}
	}
	if hdc.Pin(pba) {
		l.victimFIFO[d] = append(l.victimFIFO[d], pba)
		l.VictimInserts++
		l.bus.Transfer(l.disks[d].BlockSize(), nil)
	}
}

// onDrained flushes the buffer cache's remaining dirty blocks and every
// controller's dirty pinned blocks, charging them to the makespan.
func (l *Live) onDrained() {
	l.stamp(l.sim.Now())
	done := func(now sim.Time) { l.stamp(now) }
	for _, b := range l.cache.FlushDirty() {
		d, pba := l.striper.Locate(b)
		l.IssuedRequests++
		l.disks[d].Submit(disk.Request{PBA: pba, Blocks: 1, Write: true, Done: done})
	}
	for _, d := range l.disks {
		d.FlushHDC(done)
	}
}
