// Package host models the server machine driving the disk array: a pool
// of t simultaneous I/O streams replaying a disk-level trace as fast as
// possible (the paper's throughput methodology), the OS/driver request
// pipeline that splits file accesses into per-disk requests with
// probabilistic coalescing, and the HDC planning logic that decides which
// blocks each controller pins. An optional host buffer cache stage sits
// between the record source and the request pipeline, so server-level
// traces can be replayed with the cache in the loop.
package host

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

// IssueMode selects how a stream dispatches one record's sub-requests.
type IssueMode int

const (
	// IssueAll submits every sub-request of a record at once (the OS
	// prefetcher has them all in flight). The default.
	IssueAll IssueMode = iota
	// IssueSequential submits them one at a time, each waiting for the
	// previous completion — the synchronous-read()-loop behavior that
	// exposes blind read-ahead segments to eviction between a stream's
	// requests (the mechanism behind the paper's Figure 4 growth).
	IssueSequential
)

// String names the mode.
func (m IssueMode) String() string {
	if m == IssueSequential {
		return "sequential"
	}
	return "all"
}

// Config tunes the host model.
type Config struct {
	// Streams is the number of simultaneous I/O streams (paper: 16 for
	// the Web server, 128 elsewhere).
	Streams int
	// CoalesceProb is the probability that two consecutive-block
	// sub-requests are issued as one (paper: 0.87, measured from their
	// real workloads).
	CoalesceProb float64
	// Seed drives the coalescing coin flips.
	Seed int64
	// Issue selects the per-record dispatch mode.
	Issue IssueMode
	// FlushHDCAtEnd issues flush_hdc() on every disk after the trace
	// drains, charging the dirty writebacks to the measured I/O time.
	FlushHDCAtEnd bool
	// SyncHDCEvery issues flush_hdc() on every disk at this virtual-time
	// period (seconds), modeling the Unix 30-second sync the paper
	// measured to cost < 1%. Zero disables periodic syncs.
	SyncHDCEvery float64
	// Replicas is the RAID-1 mirroring degree: 2 means every logical
	// drive of the striper is backed by two physical disks; reads go to
	// one replica (preferring one whose HDC has the blocks pinned, then
	// the shorter queue), writes go to all. 0 or 1 disables mirroring.
	Replicas int
	// FailDisk, when positive, marks physical disk FailDisk-1 as failed:
	// it receives no requests and its mirror partner absorbs the load
	// (requires Replicas == 2). Models RAID-1 degraded operation.
	FailDisk int
	// ArrivalRate, when positive, switches the replay open-loop: records
	// arrive as a Poisson process at this rate (records/second) instead
	// of being driven as fast as the streams allow, and each record's
	// response time goes to OnLatency.
	ArrivalRate float64
	// OnLatency, when non-nil, receives each open-loop record's response
	// time as it retires; the caller chooses how to summarize them.
	// Ignored by closed-loop replays, which never measure per-record
	// response times.
	OnLatency func(float64)
	// RequestTimeout, when positive, arms a per-request watchdog: a
	// sub-request not completed within this many virtual seconds marks
	// its disk down and is redirected to the survivors through a spare
	// layout (degraded-mode striping; see fslayout.SpareLayout). Pick a
	// value comfortably above the worst healthy queueing delay — a
	// too-tight timeout declares healthy disks dead. Requires DiskBlocks
	// and an unmirrored array (RAID-1 has its own FailDisk path). Zero
	// (the default) disables the watchdog and its per-request cost
	// entirely.
	RequestTimeout float64
	// DiskBlocks is each drive's physical capacity in blocks, bounding
	// the spare regions the redirector maps into. Required when
	// RequestTimeout is set.
	DiskBlocks int64
	// BufferCacheBlocks, when positive, runs each record through a host
	// buffer cache of this many blocks before it reaches the array:
	// only read misses become requests, dirty evictions write back in
	// the background, and the dirty blocks left at the end are written
	// before the end-of-run flush. Zero (the default) means no stage.
	// Requires an unmirrored array.
	BufferCacheBlocks int
	// Victim manages each controller's HDC region as a FIFO victim
	// cache: blocks evicted clean from the buffer cache are shipped to
	// their disk's controller and pinned, so re-reads hit there instead
	// of the platters (section 5). Requires BufferCacheBlocks.
	Victim bool
}

// replicas normalizes the mirroring degree.
func (c Config) replicas() int {
	if c.Replicas < 2 {
		return 1
	}
	return c.Replicas
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Streams <= 0 {
		return fmt.Errorf("host: %d streams", c.Streams)
	}
	if c.CoalesceProb < 0 || c.CoalesceProb > 1 {
		return fmt.Errorf("host: coalesce probability %v", c.CoalesceProb)
	}
	if c.FailDisk > 0 && c.replicas() < 2 {
		return fmt.Errorf("host: failing a disk requires mirroring")
	}
	if c.ArrivalRate < 0 {
		return fmt.Errorf("host: negative arrival rate")
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("host: negative request timeout")
	}
	if c.RequestTimeout > 0 {
		if c.replicas() > 1 {
			return fmt.Errorf("host: request timeout supports only unmirrored arrays")
		}
		if c.DiskBlocks <= 0 {
			return fmt.Errorf("host: request timeout requires the per-disk capacity (DiskBlocks)")
		}
	}
	if c.BufferCacheBlocks < 0 {
		return fmt.Errorf("host: buffer cache of %d blocks", c.BufferCacheBlocks)
	}
	if c.Victim && c.BufferCacheBlocks == 0 {
		return fmt.Errorf("host: a victim cache requires a buffer cache")
	}
	if c.BufferCacheBlocks > 0 && c.replicas() > 1 {
		return fmt.Errorf("host: the buffer cache supports only unmirrored arrays")
	}
	return nil
}

// Host replays traces against an array of disks.
type Host struct {
	cfg     Config
	sim     *sim.Simulator
	disks   []*disk.Disk
	striper array.Striper
	layout  *fslayout.Layout
	rng     *rand.Rand

	// src is the record source the replay pulls from. active counts the
	// work in flight: closed-loop streams still replaying, or open-loop
	// records that have arrived and not yet retired. The replay has
	// drained once the source is exhausted and active is zero.
	src    source
	active int

	// streams holds the closed-loop per-stream replay state. Each stream
	// owns a reusable sub-request buffer and a pre-bound completion
	// event, so steady-state replay allocates nothing per record.
	streams []stream
	// runBuf and lastBuf are scratch for striper.SplitAppend; openBuf is
	// the open-loop sub-request buffer (requests are consumed at arrival
	// time, so one buffer serves every record).
	runBuf  []array.Run
	lastBuf []int
	openBuf []subRequest

	// arrivals draws the open loop's inter-arrival gaps; freeArrivals
	// holds retired arrival records for reuse.
	arrivals     *rand.Rand
	freeArrivals *arrival

	// lastCompletion tracks when the last host-visible operation (record
	// or end-of-run flush) finished; this is the reported makespan.
	// Background sync ticks may leave the simulator clock beyond it.
	lastCompletion sim.Time

	// IssuedRequests counts per-disk requests submitted during replay.
	IssuedRequests uint64

	// Degraded-mode state, allocated only when RequestTimeout > 0:
	// down marks disks the watchdog declared dead, timeouts counts the
	// watchdog firings per disk, and spares caches the re-homing layout
	// per failed disk (invalidated whenever the down set grows, so a
	// layout never targets a disk that has since died).
	down     []bool
	timeouts []uint64
	spares   []*fslayout.SpareLayout
	// redirects counts sub-requests re-issued to survivors; aborted
	// counts those retired unserved because no disk was left.
	redirects uint64
	aborted   uint64

	// Buffer-cache stage, set only when BufferCacheBlocks > 0: buf is
	// the host buffer cache, missBuf gathers one record's read misses,
	// and victims orders each disk's pinned victim blocks for
	// replacement. bus carries the victim pins to the controllers.
	buf     *bufcache.Cache
	missBuf []int64
	victims [][]int64
	bus     *bus.Bus

	// Absorbed counts records the buffer cache served without a disk
	// read; VictimInserts counts blocks pinned in victim regions.
	Absorbed      uint64
	VictimInserts uint64
}

// Timeouts returns the per-disk watchdog firing counts (nil when the
// watchdog is disabled).
func (h *Host) Timeouts() []uint64 { return h.timeouts }

// TimeoutCount reports one disk's watchdog firings, as a sampler
// callback.
func (h *Host) TimeoutCount(disk int) uint64 {
	if h.timeouts == nil {
		return 0
	}
	return h.timeouts[disk]
}

// Redirects reports sub-requests re-issued to surviving disks.
func (h *Host) Redirects() uint64 { return h.redirects }

// Aborted reports sub-requests retired unserved because every disk was
// down.
func (h *Host) Aborted() uint64 { return h.aborted }

// Active reports how much work is in flight: streams still replaying
// records (closed loop) or records that have arrived and not yet
// retired (open loop). A gauge for the telemetry sampler.
func (h *Host) Active() int { return h.active }

// Issued reports per-disk requests submitted so far, as a sampler
// callback.
func (h *Host) Issued() uint64 { return h.IssuedRequests }

// New binds a host to its array and the bus its disks share. The striper
// must match the one the disks' FOR bitmaps were built with.
func New(s *sim.Simulator, b *bus.Bus, disks []*disk.Disk, striper array.Striper, layout *fslayout.Layout, cfg Config) (*Host, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if want := striper.Disks * cfg.replicas(); len(disks) != want {
		return nil, fmt.Errorf("host: %d disks but striper x%d replicas expects %d",
			len(disks), cfg.replicas(), want)
	}
	h := &Host{
		cfg:     cfg,
		sim:     s,
		bus:     b,
		disks:   disks,
		striper: striper,
		layout:  layout,
		rng:     dist.NewRand(cfg.Seed),
	}
	if cfg.RequestTimeout > 0 {
		h.down = make([]bool, len(disks))
		h.timeouts = make([]uint64, len(disks))
		h.spares = make([]*fslayout.SpareLayout, len(disks))
	}
	if cfg.BufferCacheBlocks > 0 {
		h.buf = bufcache.New(cfg.BufferCacheBlocks)
		h.victims = make([][]int64, len(disks))
	}
	return h, nil
}

// stream is one closed-loop replay stream: the record it is working on,
// its sub-requests, and a pre-bound completion event shared by all of
// them, so advancing through the trace allocates nothing per record.
type stream struct {
	h         *Host
	rec       trace.Record
	reqs      []subRequest
	next      int // next sub-request to issue (sequential mode)
	remaining int // outstanding sub-requests (batched mode)
	done      sim.Event
}

// onDone advances the stream when one of its sub-requests completes.
func (st *stream) onDone(sim.Time) {
	if st.h.cfg.Issue == IssueSequential {
		if st.next < len(st.reqs) {
			r := st.reqs[st.next]
			st.next++
			st.h.submit(st.rec, r, st.done)
			return
		}
		st.h.startNext(st)
		return
	}
	st.remaining--
	if st.remaining == 0 {
		st.h.startNext(st)
	}
}

// Replay runs the whole trace and returns the makespan (the paper's
// "I/O time" for the workload): the completion time of the last record
// or, with FlushHDCAtEnd, of the final flush. Idle background sync
// ticks past that point do not count.
func (h *Host) Replay(t *trace.Trace) sim.Time {
	h.Start(t.Source())
	h.sim.Run()
	return h.lastCompletion
}

// Start seeds the simulator with a replay of the records next yields,
// in order, without draining it: the closed loop starts every stream,
// the open loop (ArrivalRate > 0) schedules its first arrival. The
// caller drains the simulator (sim.Run) and reads the makespan from
// Makespan. An empty source drains at once, at time zero.
func (h *Host) Start(next func() (trace.Record, bool)) {
	h.src = source{next: next}
	h.active = 0
	h.lastCompletion = 0
	if h.cfg.ArrivalRate > 0 {
		h.startOpen()
	} else {
		h.startClosed()
	}
	if h.cfg.SyncHDCEvery > 0 && !h.drained() {
		h.scheduleSync()
	}
}

// Makespan reports the completion time of the last host-visible
// operation — valid once the simulator has drained after Start.
func (h *Host) Makespan() sim.Time { return h.lastCompletion }

// startClosed starts every stream. All of them count as active before
// the first pulls, so streams that find the source already empty retire
// without draining the replay early.
func (h *Host) startClosed() {
	h.streams = make([]stream, h.cfg.Streams)
	h.active = len(h.streams)
	for i := range h.streams {
		st := &h.streams[i]
		st.h = h
		st.done = st.onDone
		h.startNext(st)
	}
}

// startOpen chains the open loop's Poisson arrivals: each arrival pulls
// the next record and schedules it, so exactly one future arrival is
// pending at a time and the event queue stays O(in-flight) however long
// the source runs. Concurrency is unbounded, as in an open system; the
// makespan is the last completion.
func (h *Host) startOpen() {
	h.arrivals = dist.NewRand(h.cfg.Seed + 0x9e3779b9)
	h.scheduleArrival()
}

// scheduleArrival pulls the next record and schedules its arrival, or
// finishes the replay when the source is empty and nothing is in flight.
func (h *Host) scheduleArrival() {
	rec, ok := h.src.pull()
	if !ok {
		if h.active == 0 {
			// Everything already retired (or the source was empty):
			// finish now; no completion will trigger it.
			h.onDrained()
		}
		return
	}
	a := h.freeArrivals
	if a == nil {
		a = &arrival{h: h}
		a.fire = a.onFire
		a.done = a.onDone
	} else {
		h.freeArrivals = a.nextFree
		a.nextFree = nil
	}
	a.rec = rec
	h.sim.After(h.arrivals.ExpFloat64()/h.cfg.ArrivalRate, a.fire)
}

// arrival is one open-loop record from its scheduling to its
// retirement. Its fire and done events are bound once, and retired
// arrivals wait on the host's free list for the next record, so the
// open loop allocates nothing per record in steady state.
type arrival struct {
	h         *Host
	rec       trace.Record
	at        sim.Time // arrival time
	remaining int      // outstanding sub-requests
	fire      sim.Event
	done      sim.Event
	nextFree  *arrival
}

// onFire issues the record at its arrival time and chains the next
// arrival. The last sub-request completion reports the response time
// and retires the record.
func (a *arrival) onFire(now sim.Time) {
	h := a.h
	h.active++
	a.at = now
	// Requests are all submitted before this returns, so the shared
	// open-loop buffer can be reused by the next arrival.
	reqs := h.buildRequestsInto(h.openBuf[:0], a.rec)
	h.openBuf = reqs[:0]
	if len(reqs) == 0 {
		h.release(a)
	} else {
		a.remaining = len(reqs)
		for _, r := range reqs {
			h.submit(a.rec, r, a.done)
		}
	}
	h.scheduleArrival()
}

// onDone counts one sub-request completion; the last one retires the
// record.
func (a *arrival) onDone(now sim.Time) {
	a.remaining--
	if a.remaining > 0 {
		return
	}
	h := a.h
	if h.cfg.OnLatency != nil {
		h.cfg.OnLatency(now - a.at)
	}
	h.stamp(now)
	h.release(a)
}

// release retires an open-loop record and returns its arrival to the
// free list.
func (h *Host) release(a *arrival) {
	a.nextFree = h.freeArrivals
	h.freeArrivals = a
	h.retire()
}

// retire accounts one unit of in-flight work ending — a closed-loop
// stream that found the source empty, or an open-loop record — and
// finishes the replay once nothing is left in flight or to pull.
func (h *Host) retire() {
	h.active--
	if h.drained() {
		h.onDrained()
	}
}

// drained reports whether the replay is over: the source is exhausted
// and nothing is in flight.
func (h *Host) drained() bool { return h.src.exhausted && h.active == 0 }

// scheduleSync arms the next periodic flush_hdc. The chain stops when
// the replay has drained, so the simulation terminates.
func (h *Host) scheduleSync() {
	h.sim.After(h.cfg.SyncHDCEvery, func(sim.Time) {
		if h.drained() {
			return
		}
		for _, d := range h.disks {
			d.FlushHDC(nil)
		}
		h.scheduleSync()
	})
}

// onDrained runs when the last stream retires: it stamps the makespan
// and issues the end-of-run flush — the buffer cache's dirty blocks,
// then flush_hdc — whose completions extend it.
func (h *Host) onDrained() {
	h.stamp(h.sim.Now())
	done := func(now sim.Time) { h.stamp(now) }
	if h.buf != nil {
		h.flushDirty(done)
	}
	if !h.cfg.FlushHDCAtEnd {
		return
	}
	for _, d := range h.disks {
		d.FlushHDC(done)
	}
}

func (h *Host) stamp(now sim.Time) {
	if now > h.lastCompletion {
		h.lastCompletion = now
	}
}

// startNext advances one stream to its next record, retiring the
// stream when the source is exhausted.
func (h *Host) startNext(st *stream) {
	for {
		rec, ok := h.src.pull()
		if !ok {
			h.retire()
			return
		}
		st.reqs = h.buildRequestsInto(st.reqs[:0], rec)
		if len(st.reqs) == 0 {
			continue // record clamped to nothing; take the next one
		}
		st.rec = rec
		if h.cfg.Issue == IssueSequential {
			st.next = 1
			h.submit(rec, st.reqs[0], st.done)
		} else {
			st.remaining = len(st.reqs)
			for _, r := range st.reqs {
				h.submit(rec, r, st.done)
			}
		}
		return
	}
}

// source is the record source every replay pulls from: a materialized
// trace's records (trace.Trace.Source) or a generated stream, in order.
// Once next reports the end, the source is exhausted and next is never
// called again.
type source struct {
	next      func() (trace.Record, bool)
	exhausted bool
}

// pull takes the next record, marking the source exhausted at its end.
func (s *source) pull() (trace.Record, bool) {
	if s.exhausted {
		return trace.Record{}, false
	}
	rec, ok := s.next()
	s.exhausted = !ok
	return rec, ok
}

// failed reports whether physical disk i is marked down.
func (h *Host) failed(i int) bool { return h.cfg.FailDisk > 0 && h.cfg.FailDisk-1 == i }

// submit routes one sub-request to physical disks, handling mirroring
// and degraded operation.
func (h *Host) submit(rec trace.Record, r subRequest, done sim.Event) {
	replicas := h.cfg.replicas()
	base := r.disk * replicas
	if rec.Write && replicas > 1 {
		// Mirrored write: commit on every live replica before the
		// record advances.
		targets := make([]int, 0, replicas)
		for i := 0; i < replicas; i++ {
			if !h.failed(base + i) {
				targets = append(targets, base+i)
			}
		}
		remaining := len(targets)
		each := func(now sim.Time) {
			remaining--
			if remaining == 0 && done != nil {
				done(now)
			}
		}
		for _, d := range targets {
			h.IssuedRequests++
			h.disks[d].Submit(disk.Request{
				PBA: r.pba, Blocks: r.blocks, Write: true, Done: each,
			})
		}
		return
	}
	h.dispatch(base+h.pickReplica(base, replicas, r), r.pba, r.blocks, rec.Write, done)
}

// dispatch issues one sub-request to a physical disk. Without a request
// timeout this is exactly the plain submit of the healthy path. With
// one, the sub-request is guarded by a watchdog: if the disk neither
// completes nor acknowledges it within RequestTimeout, the disk is
// declared down and the blocks are re-issued to the survivors. The
// resolved flag makes completion and expiry mutually exclusive.
func (h *Host) dispatch(di int, pba int64, blocks int, write bool, done sim.Event) {
	if h.cfg.RequestTimeout <= 0 {
		h.IssuedRequests++
		h.disks[di].Submit(disk.Request{PBA: pba, Blocks: blocks, Write: write, Done: done})
		return
	}
	if h.down[di] {
		h.redirect(di, pba, blocks, write, done)
		return
	}
	resolved := new(bool)
	h.sim.After(h.cfg.RequestTimeout, func(sim.Time) {
		if *resolved {
			return
		}
		*resolved = true
		h.timeouts[di]++
		h.markDown(di)
		h.redirect(di, pba, blocks, write, done)
	})
	h.IssuedRequests++
	h.disks[di].Submit(disk.Request{PBA: pba, Blocks: blocks, Write: write,
		Done: func(now sim.Time) {
			if *resolved {
				return
			}
			*resolved = true
			if done != nil {
				done(now)
			}
		}})
}

// markDown records a disk death observed by the watchdog and drops the
// cached spare layouts: the survivor set changed, so every re-homing
// map must be rebuilt to exclude the new casualty.
func (h *Host) markDown(di int) {
	if h.down[di] {
		return
	}
	h.down[di] = true
	for i := range h.spares {
		h.spares[i] = nil
	}
}

// redirect re-issues a down disk's sub-request to the survivors through
// the spare layout. Each extent re-enters dispatch, so a survivor that
// has since died redirects again; when nothing is left the request is
// retired unserved so the replay can finish and report the outage.
func (h *Host) redirect(from int, pba int64, blocks int, write bool, done sim.Event) {
	sp := h.spares[from]
	if sp == nil {
		var err error
		sp, err = fslayout.NewSpareLayout(h.striper, h.cfg.DiskBlocks, from, h.down)
		if err != nil {
			// No survivors: retire the request unserved.
			h.aborted++
			if done != nil {
				h.sim.After(0, done)
			}
			return
		}
		h.spares[from] = sp
	}
	h.redirects++
	runs := sp.Split(nil, pba, blocks)
	if len(runs) == 1 {
		h.dispatch(runs[0].Disk, runs[0].PBA, runs[0].Blocks, write, done)
		return
	}
	remaining := len(runs)
	each := func(now sim.Time) {
		remaining--
		if remaining == 0 && done != nil {
			done(now)
		}
	}
	for _, r := range runs {
		h.dispatch(r.Disk, r.PBA, r.Blocks, write, each)
	}
}

// pickReplica chooses which mirror serves a read: a live replica whose
// HDC region has the whole range pinned wins outright (the
// cooperative-HDC routing), otherwise the shortest live queue.
func (h *Host) pickReplica(base, replicas int, r subRequest) int {
	if replicas == 1 {
		return 0
	}
	best, bestLen := 0, -1
	for i := 0; i < replicas; i++ {
		if h.failed(base + i) {
			continue
		}
		d := h.disks[base+i]
		if d.PinnedAll(r.pba, r.blocks) {
			return i
		}
		if q := d.QueueLen(); bestLen < 0 || q < bestLen {
			best, bestLen = i, q
		}
	}
	return best
}

type subRequest struct {
	disk   int
	pba    int64
	blocks int
}

// buildRequestsInto turns one trace record into per-disk requests,
// appending to dst: file blocks -> buffer cache read misses (when the
// stage is on) -> logical runs (fragmentation) -> per-disk physical runs
// (striping) -> issued requests (probabilistic coalescing). The scratch
// buffers live on the Host — the simulation is single-threaded, so one
// set serves every caller.
func (h *Host) buildRequestsInto(dst []subRequest, rec trace.Record) []subRequest {
	blocks := h.layout.FileBlocks(int(rec.File))
	lo := min(int(rec.Offset), len(blocks))
	hi := min(int(rec.Offset)+int(rec.Blocks), len(blocks))
	window := blocks[lo:hi]
	if h.buf != nil {
		window = h.throughCache(window, rec.Write)
	}

	if h.lastBuf == nil {
		h.lastBuf = make([]int, h.striper.Disks)
	}
	// Walk maximal logically-contiguous runs of the accessed window.
	i := 0
	for i < len(window) {
		j := i + 1
		for j < len(window) && window[j] == window[j-1]+1 {
			j++
		}
		h.runBuf = h.striper.SplitAppend(h.runBuf[:0], h.lastBuf, window[i], j-i)
		for _, run := range h.runBuf {
			dst = splitRun(dst, run, h.rng, h.cfg.CoalesceProb)
		}
		i = j
	}
	return dst
}

// splitRun applies probabilistic coalescing to one physically
// contiguous per-disk run, appending its requests to reqs: the run is
// cut at each internal junction whose coin flip (probability p of
// coalescing, drawn from rng) fails.
func splitRun(reqs []subRequest, run array.Run, rng *rand.Rand, p float64) []subRequest {
	start := run.PBA
	length := 1
	for b := 1; b < run.Blocks; b++ {
		if dist.Bernoulli(rng, p) {
			length++
			continue
		}
		reqs = append(reqs, subRequest{disk: run.Disk, pba: start, blocks: length})
		start = run.PBA + int64(b)
		length = 1
	}
	return append(reqs, subRequest{disk: run.Disk, pba: start, blocks: length})
}

// ---- aggregate results --------------------------------------------------------

// ArrayStats sums per-disk counters.
type ArrayStats struct {
	PerDisk []disk.Stats
}

// Collect snapshots every disk's stats.
func Collect(disks []*disk.Disk) ArrayStats {
	out := ArrayStats{PerDisk: make([]disk.Stats, len(disks))}
	for i, d := range disks {
		out.PerDisk[i] = d.Stats()
	}
	return out
}

// Accesses reports total requests across the array.
func (a ArrayStats) Accesses() uint64 {
	var n uint64
	for _, s := range a.PerDisk {
		n += s.Accesses()
	}
	return n
}

// HDCHitRate reports the array-wide pinned-region hit rate, the metric
// of Figures 5, 8, 10 and 12.
func (a ArrayStats) HDCHitRate() float64 {
	var hits, total uint64
	for _, s := range a.PerDisk {
		hits += s.HDCReadHits + s.HDCWriteHits
		total += s.Accesses()
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// HitRate reports the array-wide controller-cache hit rate.
func (a ArrayStats) HitRate() float64 {
	var hits, total uint64
	for _, s := range a.PerDisk {
		hits += s.ReadHits + s.LateHits + s.HDCReadHits + s.HDCWriteHits
		total += s.Accesses()
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// MediaBlocks reports blocks moved at the platters, including read-ahead.
func (a ArrayStats) MediaBlocks() uint64 {
	var n uint64
	for _, s := range a.PerDisk {
		n += s.MediaBlocks
	}
	return n
}

// BusyTime reports summed mechanical busy seconds.
func (a ArrayStats) BusyTime() float64 {
	var t float64
	for _, s := range a.PerDisk {
		t += s.BusyTime()
	}
	return t
}

// MaxBusyTime reports the busiest disk's mechanical time — the load
// balance indicator behind the striping-unit sweeps.
func (a ArrayStats) MaxBusyTime() float64 {
	var m float64
	for _, s := range a.PerDisk {
		if b := s.BusyTime(); b > m {
			m = b
		}
	}
	return m
}
