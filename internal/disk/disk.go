// Package disk assembles one complete disk drive: the mechanical model,
// the controller's request queue (LOOK by default), and the controller
// cache in any of the organizations the paper compares — conventional
// segments with blind read-ahead, block-based with blind read-ahead,
// block-based with no read-ahead, and FOR — optionally carved down by an
// HDC pinned region and the FOR bitmap's memory overhead.
package disk

import (
	"fmt"
	"slices"

	"diskthru/internal/bus"
	"diskthru/internal/cache"
	"diskthru/internal/fault"
	"diskthru/internal/fslayout"
	"diskthru/internal/geom"
	"diskthru/internal/probe"
	"diskthru/internal/sched"
	"diskthru/internal/sim"
)

// Org selects the controller-cache organization.
type Org int

const (
	// OrgSegment is the conventional segment cache (whole-victim LRU).
	OrgSegment Org = iota
	// OrgBlock is the block-based pool organization.
	OrgBlock
)

// ReadAhead selects the controller's read-ahead strategy.
type ReadAhead int

const (
	// RABlind always reads a full read-ahead unit (one segment's worth)
	// of physically consecutive blocks — the conventional drive.
	RABlind ReadAhead = iota
	// RANone disables read-ahead: only the requested blocks are read.
	RANone
	// RAFOR consults the FOR continuation bitmap and stops at the first
	// block that is not a same-file continuation.
	RAFOR
)

// String names the strategy.
func (r ReadAhead) String() string {
	switch r {
	case RABlind:
		return "blind"
	case RANone:
		return "none"
	case RAFOR:
		return "FOR"
	default:
		return fmt.Sprintf("ReadAhead(%d)", int(r))
	}
}

// Config describes one drive.
type Config struct {
	Geom  geom.Geometry
	Sched sched.Policy

	// CacheBytes is the controller's total memory (paper: 4 MB).
	CacheBytes int
	// SegmentBytes is the segment / read-ahead unit size (paper: 128 KB).
	SegmentBytes int
	// MaxSegments caps the segment count (paper: 27 for 128-KB segments).
	MaxSegments int

	Org        Org
	BlockEvict cache.EvictPolicy
	ReadAhead  ReadAhead
	// Bitmap is the FOR continuation bitmap; required when ReadAhead is
	// RAFOR. Its SizeBytes() is charged against CacheBytes.
	Bitmap *fslayout.Bitmap
	// HDCBytes is the host-guided region carved out of CacheBytes.
	HDCBytes int
	// CommandOverhead is the fixed controller cost per media operation
	// (command decode, setup, completion) in seconds. Typical SCSI
	// drives spend a few hundred microseconds; this is what makes many
	// small operations slower than one large one even when the data
	// streams sequentially.
	CommandOverhead float64
	// Tracer receives per-request lifecycle callbacks. nil (the default)
	// disables tracing entirely: the hot path then pays one nil check
	// per stage and the drive behaves exactly as before the telemetry
	// layer existed.
	Tracer probe.Tracer
	// Injector is this drive's fault model (see internal/fault). nil
	// (the default) disables fault injection entirely: like Tracer, the
	// hot path then pays one nil check per media operation and the
	// drive's event trajectory is exactly the fault-free one.
	Injector *fault.Injector
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	switch {
	case c.CacheBytes <= 0:
		return fmt.Errorf("disk: cache of %d bytes", c.CacheBytes)
	case c.SegmentBytes <= 0 || c.SegmentBytes%c.Geom.BlockSize != 0:
		return fmt.Errorf("disk: segment bytes %d not a positive multiple of block size", c.SegmentBytes)
	case c.MaxSegments <= 0:
		return fmt.Errorf("disk: max segments %d", c.MaxSegments)
	case c.HDCBytes < 0:
		return fmt.Errorf("disk: negative HDC bytes")
	case c.CommandOverhead < 0:
		return fmt.Errorf("disk: negative command overhead")
	case c.ReadAhead == RAFOR && c.Bitmap == nil:
		return fmt.Errorf("disk: FOR read-ahead requires a bitmap")
	}
	if _, err := c.storeBudget(); err != nil {
		return err
	}
	return nil
}

// storeBudget computes the bytes left for the replaceable store after the
// HDC region and (for FOR) the bitmap are carved out.
func (c Config) storeBudget() (int, error) {
	budget := c.CacheBytes - c.HDCBytes
	if c.ReadAhead == RAFOR && c.Bitmap != nil {
		budget -= c.Bitmap.SizeBytes()
	}
	if budget < c.Geom.BlockSize {
		return 0, fmt.Errorf("disk: cache budget %d bytes leaves no room for a read-ahead store", budget)
	}
	return budget, nil
}

// Stats aggregates one drive's counters. Times are in seconds.
type Stats struct {
	Reads  uint64 // read requests submitted
	Writes uint64 // write requests submitted

	ReadHits     uint64 // reads fully served from cache at submit
	LateHits     uint64 // reads found fully cached when dequeued
	HDCReadHits  uint64 // reads absorbed by the pinned region
	HDCWriteHits uint64 // writes absorbed by the pinned region

	MediaOps        uint64 // platter operations performed
	MediaBlocks     uint64 // blocks moved to/from media (incl. read-ahead)
	RequestedBlocks uint64 // blocks the host actually asked for

	Retries uint64 // media attempts failed by the fault model
	Remaps  uint64 // latent sector windows remapped after retry exhaustion
	Dropped uint64 // requests discarded because the drive was dead

	SeekTime     float64
	RotTime      float64
	TransferTime float64
	OverheadTime float64 // per-command controller processing
	RecoveryTime float64 // busy seconds spent in failed attempts + error recovery
}

// BusyTime reports total busy seconds at the drive.
func (s Stats) BusyTime() float64 {
	return s.SeekTime + s.RotTime + s.TransferTime + s.OverheadTime + s.RecoveryTime
}

// Accesses reports total requests.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// HitRate reports the fraction of requests served without a media
// operation.
func (s Stats) HitRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	hits := s.ReadHits + s.LateHits + s.HDCReadHits + s.HDCWriteHits
	return float64(hits) / float64(s.Accesses())
}

// HDCHitRate reports the fraction of requests absorbed by the pinned
// region, the quantity plotted in Figures 5, 8, 10 and 12.
func (s Stats) HDCHitRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.HDCReadHits+s.HDCWriteHits) / float64(s.Accesses())
}

// Request is one host-issued, per-disk operation on physically
// contiguous blocks.
type Request struct {
	PBA    int64
	Blocks int
	Write  bool
	// Done fires when the data has crossed the bus (reads) or the write
	// has been absorbed or committed.
	Done sim.Event

	// trace carries the telemetry id assigned at Submit; zero when the
	// request is untraced.
	trace probe.RequestID
}

// Disk is a running drive bound to a simulator and a shared bus.
type Disk struct {
	ID  int
	cfg Config

	sim *sim.Simulator
	bus *bus.Bus

	// mech is the compiled mechanical model (seek/angle lookup tables,
	// precomputed zone spans) for cfg.Geom; maxBlocks caches its
	// capacity so the read-ahead clamp does no per-op recomputation.
	mech      *geom.Mech
	maxBlocks int64

	queue   sched.Queue[Request]
	headCyl int
	busy    bool
	// opEnd is the virtual completion time of the in-flight media
	// operation. Its full cost lands in stats at dispatch; Sample uses
	// opEnd to apportion the not-yet-elapsed remainder out of the busy
	// gauge so per-interval utilization never exceeds 1.
	opEnd sim.Time

	store cache.Store
	hdc   *cache.HDCRegion

	stats Stats

	// kick, mediaDone and retry are pre-bound events so the dispatch
	// loop schedules without allocating a closure per operation. The
	// drive services one media operation at a time (the busy flag gates
	// the chain), so a single inflight slot suffices.
	kick          sim.Event
	mediaDone     sim.Event
	retry         sim.Event
	inflight      Request
	inflightCount int

	// onBus holds the writes crossing the bus toward the queue, oldest
	// first; the pre-bound writeArrived event enqueues the oldest. The
	// bus serves transfers in FIFO order, so this drive's writes arrive
	// in the order they were submitted.
	onBus        []Request
	writeArrived sim.Event

	// inj is the injected fault model (nil = faults off); attempt
	// counts how many times the in-flight request's media access has
	// failed so far.
	inj     *fault.Injector
	attempt int

	// tr is the injected lifecycle tracer (nil = tracing off); raOrigin
	// maps read-ahead blocks not yet re-referenced to the request that
	// fetched them, so useless read-ahead can be flagged. Allocated only
	// when tracing is on.
	tr       probe.Tracer
	raOrigin map[int64]probe.RequestID
}

// New builds a drive. The controller memory left after the HDC region
// and bitmap overhead becomes the replaceable store: whole segments for
// OrgSegment (capped at MaxSegments), a block pool for OrgBlock.
func New(s *sim.Simulator, b *bus.Bus, id int, cfg Config) (*Disk, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	budget, err := cfg.storeBudget()
	if err != nil {
		return nil, err
	}
	d := &Disk{
		ID: id, cfg: cfg, sim: s, bus: b,
		mech:      cfg.Geom.Compile(),
		maxBlocks: cfg.Geom.Blocks(),
		queue:     sched.New[Request](cfg.Sched),
	}
	segBlocks := cfg.SegmentBytes / cfg.Geom.BlockSize
	switch cfg.Org {
	case OrgSegment:
		n := budget / cfg.SegmentBytes
		if n > cfg.MaxSegments {
			n = cfg.MaxSegments
		}
		if n < 1 {
			n = 1
		}
		d.store = cache.NewSegmentStore(n, segBlocks)
	case OrgBlock:
		n := budget / cfg.Geom.BlockSize
		d.store = cache.NewBlockStore(n, cfg.BlockEvict)
	default:
		return nil, fmt.Errorf("disk: unknown cache organization %d", int(cfg.Org))
	}
	d.hdc = cache.NewHDCRegion(cfg.HDCBytes / cfg.Geom.BlockSize)
	d.kick = func(sim.Time) { d.serviceNext() }
	d.mediaDone = func(sim.Time) { d.finishMedia() }
	d.retry = func(sim.Time) { d.startAttempt() }
	d.writeArrived = func(sim.Time) { d.arriveWrite() }
	d.inj = cfg.Injector
	if cfg.Tracer != nil {
		d.tr = cfg.Tracer
		d.raOrigin = make(map[int64]probe.RequestID)
	}
	return d, nil
}

// Stats returns a copy of the drive's counters.
func (d *Disk) Stats() Stats { return d.stats }

// Store exposes the replaceable store for inspection in tests.
func (d *Disk) Store() cache.Store { return d.store }

// HDC exposes the pinned region (the pin_blk/unpin_blk surface).
func (d *Disk) HDC() *cache.HDCRegion { return d.hdc }

// QueueLen reports pending media operations.
func (d *Disk) QueueLen() int { return d.queue.Len() }

// Sample implements probe.DiskProbe: a point-in-time reading of the
// drive's gauges for the telemetry sampler. Busy counts only the
// mechanical time already elapsed: the in-flight operation's remainder
// beyond now is subtracted from the dispatch-time charge, so the
// sampler's per-interval utilization stays within [0, 1].
func (d *Disk) Sample() probe.DiskSample {
	snap := cache.Snap(d.store)
	busy := d.stats.BusyTime()
	if rem := d.opEnd - d.sim.Now(); rem > 0 {
		busy -= rem
	}
	return probe.DiskSample{
		Busy:            busy,
		Queue:           d.queue.Len(),
		StoreLen:        snap.Len,
		StoreCap:        snap.Capacity,
		StoreEvictions:  snap.Evictions,
		Pinned:          d.hdc.Len(),
		PinnedCap:       d.hdc.Capacity(),
		PinnedDirty:     d.hdc.DirtyCount(),
		MediaBlocks:     d.stats.MediaBlocks,
		RequestedBlocks: d.stats.RequestedBlocks,
		Retries:         d.stats.Retries,
		Remaps:          d.stats.Remaps,
	}
}

// completeHook wraps a request's completion event so the tracer sees the
// completion timestamp. Only called when tracing is on.
func (d *Disk) completeHook(id probe.RequestID, done sim.Event) sim.Event {
	return func(now sim.Time) {
		d.tr.Complete(id, now)
		if done != nil {
			done(now)
		}
	}
}

// markRAUsed credits the requests whose read-ahead fetched any of
// [pba, pba+n) now that those blocks served a controller hit.
func (d *Disk) markRAUsed(pba int64, n int) {
	if d.raOrigin == nil {
		return
	}
	for i := 0; i < n; i++ {
		if id, ok := d.raOrigin[pba+int64(i)]; ok {
			d.tr.ReadAheadUsed(id)
			delete(d.raOrigin, pba+int64(i))
		}
	}
}

// registerRA records which request fetched the read-ahead blocks of a
// media read. Requested blocks clear any stale origin (their earlier
// read-ahead did not save this media operation, so it gets no credit).
func (d *Disk) registerRA(r Request, count int) {
	if d.raOrigin == nil || r.trace == 0 {
		return
	}
	for i := 0; i < r.Blocks; i++ {
		delete(d.raOrigin, r.PBA+int64(i))
	}
	for i := r.Blocks; i < count; i++ {
		d.raOrigin[r.PBA+int64(i)] = r.trace
	}
}

// BlockSize reports the drive's logical block size in bytes.
func (d *Disk) BlockSize() int { return d.cfg.Geom.BlockSize }

// PinBlocks pins as many of the given physical blocks as fit in the HDC
// region and returns how many were pinned. Used by the host's HDC
// planner at the start of a period; the paper does not charge the
// preload against the measured run.
func (d *Disk) PinBlocks(pbas []int64) int {
	n := 0
	for _, p := range pbas {
		if d.hdc.Pin(p) {
			n++
		}
	}
	return n
}

// segBlocks reports the read-ahead unit in blocks.
func (d *Disk) segBlocks() int { return d.cfg.SegmentBytes / d.cfg.Geom.BlockSize }

// resident reports whether every block of [pba, pba+n) can be served
// from the controller (pinned region or store).
func (d *Disk) resident(pba int64, n int) bool {
	for n > 0 {
		k := d.hdc.FirstPinned(pba, n)
		if d.store.ResidentPrefix(pba, k) < k {
			return false
		}
		pba += int64(k + 1)
		n -= k + 1
	}
	return true
}

// PinnedAll reports whether every block of [pba, pba+n) is pinned in
// the HDC region — used by mirrored hosts to route reads to the replica
// that can serve them without a media access.
func (d *Disk) PinnedAll(pba int64, n int) bool {
	return d.hdc.AllPinned(pba, n)
}

// Submit accepts one request. The controller checks its cache before
// queueing (paper section 6.1); hits go straight to the bus.
func (d *Disk) Submit(r Request) {
	if r.Blocks <= 0 {
		panic(fmt.Sprintf("disk: request of %d blocks", r.Blocks))
	}
	if d.tr != nil {
		r.trace = d.tr.Begin(d.ID, r.PBA, r.Blocks, r.Write, d.sim.Now())
		r.Done = d.completeHook(r.trace, r.Done)
	}
	if d.inj != nil && d.inj.Dead(d.sim.Now()) {
		// A dead drive acknowledges nothing: the request is dropped and
		// its Done never fires. Hosts that want to survive this arm a
		// watchdog (host.Config.RequestTimeout) and redirect.
		d.stats.Dropped++
		if d.tr != nil && r.trace != 0 {
			d.tr.Outcome(r.trace, probe.OutcomeDropped)
			d.tr.Complete(r.trace, d.sim.Now())
		}
		return
	}
	bytes := r.Blocks * d.cfg.Geom.BlockSize
	if r.Write {
		d.stats.Writes++
		d.stats.RequestedBlocks += uint64(r.Blocks)
		if d.PinnedAll(r.PBA, r.Blocks) {
			// Absorbed by the pinned region: host->controller transfer
			// only; media write deferred until flush_hdc.
			d.stats.HDCWriteHits++
			for i := 0; i < r.Blocks; i++ {
				d.hdc.MarkDirty(r.PBA + int64(i))
			}
			if d.tr != nil {
				d.tr.Outcome(r.trace, probe.OutcomeHDCWriteHit)
			}
			d.bus.Transfer(bytes, r.Done)
			return
		}
		d.onBus = append(d.onBus, r)
		d.bus.Transfer(bytes, d.writeArrived)
		return
	}

	d.stats.Reads++
	d.stats.RequestedBlocks += uint64(r.Blocks)
	if d.PinnedAll(r.PBA, r.Blocks) {
		d.stats.HDCReadHits++
		if d.tr != nil {
			d.tr.Outcome(r.trace, probe.OutcomeHDCReadHit)
		}
		d.bus.Transfer(bytes, r.Done)
		return
	}
	if d.resident(r.PBA, r.Blocks) {
		d.stats.ReadHits++
		if d.tr != nil {
			d.tr.Outcome(r.trace, probe.OutcomeCacheHit)
			d.markRAUsed(r.PBA, r.Blocks)
		}
		d.store.TouchRange(r.PBA, r.Blocks)
		d.bus.Transfer(bytes, r.Done)
		return
	}
	d.enqueue(r)
}

// arriveWrite queues the oldest write on the bus for the media. The
// few writes behind it shift down in place, and Delete clears the
// vacated slot's Done closure.
func (d *Disk) arriveWrite() {
	r := d.onBus[0]
	d.onBus = slices.Delete(d.onBus, 0, 1)
	d.enqueue(r)
}

func (d *Disk) enqueue(r Request) {
	if d.tr != nil && r.trace != 0 {
		d.tr.Queued(r.trace, d.sim.Now())
	}
	cyl := d.mech.Cylinder(r.PBA)
	d.queue.Push(sched.Request[Request]{Cyl: cyl, Payload: r})
	if !d.busy {
		d.busy = true
		d.sim.After(0, d.kick)
	}
}

// serviceNext pops one request and performs its media operation.
func (d *Disk) serviceNext() {
	if d.inj != nil && d.inj.Dead(d.sim.Now()) {
		// The drive died with work queued: the queue strands (Done never
		// fires for those requests) and the dispatch chain stops.
		d.busy = false
		return
	}
	item, ok := d.queue.Next(d.headCyl)
	if !ok {
		d.busy = false
		return
	}
	r := item.Payload
	if d.tr != nil && r.trace != 0 {
		d.tr.Dispatch(r.trace, d.sim.Now())
	}

	if !r.Write && d.resident(r.PBA, r.Blocks) {
		// Satisfied while queued by an earlier operation's read-ahead.
		d.stats.LateHits++
		if d.tr != nil && r.trace != 0 {
			d.tr.Outcome(r.trace, probe.OutcomeLateHit)
			d.markRAUsed(r.PBA, r.Blocks)
		}
		d.store.TouchRange(r.PBA, r.Blocks)
		d.bus.Transfer(r.Blocks*d.cfg.Geom.BlockSize, r.Done)
		d.serviceNext()
		return
	}

	d.inflight = r
	d.attempt = 0
	d.startAttempt()
}

// startAttempt performs one media attempt for the in-flight request.
// Without a fault model this is the old one-shot media phase; with one,
// the injector may fail the attempt, in which case the drive charges
// the wasted mechanical time plus recovery latency to RecoveryTime and
// reschedules itself after a capped exponential backoff. The retry
// bound inside the injector guarantees forward progress.
func (d *Disk) startAttempt() {
	r := d.inflight
	if d.inj != nil && d.inj.Dead(d.sim.Now()) {
		// Death mid-retry: strand the request and stop the chain.
		d.inflight = Request{}
		d.busy = false
		return
	}
	count := r.Blocks
	if !r.Write {
		count = d.readAheadCount(r)
	}
	acc := d.mech.MediaOp(d.headCyl, r.PBA, count, d.sim.Now()+d.cfg.CommandOverhead)
	d.headCyl = acc.EndCylinder
	if d.inj != nil {
		fail, remapped := d.inj.Attempt(r.PBA, count, d.attempt)
		if remapped {
			d.stats.Remaps++
		}
		if fail {
			d.attempt++
			d.stats.Retries++
			// The failed attempt holds the drive busy for the full
			// mechanical cost plus the drive's error recovery; the head
			// has still moved, so the retry seeks distance zero.
			cost := d.cfg.CommandOverhead + acc.Total() + d.inj.RecoveryLatency()
			d.stats.RecoveryTime += cost
			if d.tr != nil && r.trace != 0 {
				d.tr.Retry(r.trace, d.sim.Now())
			}
			d.opEnd = d.sim.Now() + cost
			d.sim.After(cost+d.inj.Backoff(d.attempt), d.retry)
			return
		}
	}
	d.stats.MediaOps++
	d.stats.MediaBlocks += uint64(count)
	d.stats.SeekTime += acc.SeekTime
	d.stats.RotTime += acc.RotWait
	d.stats.TransferTime += acc.TransferTime
	d.stats.OverheadTime += d.cfg.CommandOverhead
	if d.tr != nil && r.trace != 0 {
		d.tr.Media(r.trace, acc.SeekTime, acc.RotWait, acc.TransferTime,
			d.cfg.CommandOverhead, count-r.Blocks)
		if r.Write {
			d.tr.Outcome(r.trace, probe.OutcomeMediaWrite)
		} else {
			d.tr.Outcome(r.trace, probe.OutcomeMediaRead)
		}
	}

	d.inflightCount = count
	d.opEnd = d.sim.Now() + d.cfg.CommandOverhead + acc.Total()
	d.sim.After(d.cfg.CommandOverhead+acc.Total(), d.mediaDone)
}

// finishMedia completes the in-flight media operation and services the
// next queued request.
func (d *Disk) finishMedia() {
	r, count := d.inflight, d.inflightCount
	d.inflight = Request{} // release the Done closure
	if r.Write {
		d.store.TouchRange(r.PBA, r.Blocks)
		if r.Done != nil {
			r.Done(d.sim.Now())
		}
	} else {
		d.insertRead(r.PBA, count)
		d.registerRA(r, count)
		d.bus.Transfer(r.Blocks*d.cfg.Geom.BlockSize, r.Done)
	}
	d.serviceNext()
}

// readAheadCount decides how many blocks the media operation reads.
func (d *Disk) readAheadCount(r Request) int {
	count := r.Blocks
	switch d.cfg.ReadAhead {
	case RANone:
		// Just the requested blocks.
	case RABlind:
		if unit := d.segBlocks(); count < unit {
			count = unit
		}
	case RAFOR:
		if run := d.cfg.Bitmap.Run(r.PBA, d.segBlocks()); run > count {
			count = run
		}
	}
	// Never read past the end of the bitmap's disk / the platter.
	if r.PBA+int64(count) > d.maxBlocks {
		count = int(d.maxBlocks - r.PBA)
	}
	return count
}

// insertRead places media-read blocks into the store, skipping pinned
// blocks (they are already resident and must not occupy pool space):
// each maximal unpinned run is inserted on its own.
func (d *Disk) insertRead(pba int64, count int) {
	for count > 0 {
		k := d.hdc.FirstPinned(pba, count)
		if k > 0 {
			d.store.Insert(pba, k)
		}
		pba += int64(k + 1)
		count -= k + 1
	}
}

// FlushHDC writes all dirty pinned blocks back to media, as flush_hdc()
// does, and fires done when the last one commits. Dirty blocks, which
// Flush returns in ascending order, are grouped into physically
// contiguous runs to model the coalesced writeback an operating system
// would issue.
func (d *Disk) FlushHDC(done sim.Event) {
	dirty := d.hdc.Flush()
	if len(dirty) == 0 {
		if done != nil {
			d.sim.After(0, done)
		}
		return
	}
	remaining := 0
	complete := func(sim.Time) {
		remaining--
		if remaining == 0 && done != nil {
			done(d.sim.Now())
		}
	}
	i := 0
	for i < len(dirty) {
		j := i + 1
		for j < len(dirty) && dirty[j] == dirty[j-1]+1 {
			j++
		}
		remaining++
		req := Request{PBA: dirty[i], Blocks: j - i, Write: true, Done: complete}
		if d.tr != nil {
			req.trace = d.tr.Begin(d.ID, req.PBA, req.Blocks, true, d.sim.Now())
			// Tag now so dispatch's media-write tag loses the
			// first-wins race: these are internal writebacks, not host
			// requests.
			d.tr.Outcome(req.trace, probe.OutcomeFlushWrite)
			req.Done = d.completeHook(req.trace, req.Done)
		}
		d.enqueue(req)
		i = j
	}
}
