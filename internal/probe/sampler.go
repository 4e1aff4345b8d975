package probe

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"diskthru/internal/bufcache"
	"diskthru/internal/sim"
)

// DiskSample is one drive's cumulative counters at a sampling instant.
// The sampler differences consecutive samples to produce per-interval
// rates.
type DiskSample struct {
	// Busy is cumulative mechanical busy time (seconds), apportioned to
	// elapsed virtual time: an in-flight operation contributes only the
	// part that has already happened, so differencing two samples gives
	// a per-interval utilization bounded by 1.
	Busy float64
	// Queue is the instantaneous controller queue depth.
	Queue int
	// StoreLen/StoreCap/StoreEvictions describe the replaceable store.
	StoreLen, StoreCap int
	StoreEvictions     uint64
	// Pinned/PinnedCap/PinnedDirty describe the HDC region.
	Pinned, PinnedCap, PinnedDirty int
	// MediaBlocks/RequestedBlocks are the cumulative traffic counters.
	MediaBlocks, RequestedBlocks uint64
	// Retries/Remaps are the cumulative fault-model counters (zero with
	// faults off).
	Retries, Remaps uint64
}

// DiskProbe is anything that can be sampled as a drive; *disk.Disk
// implements it.
type DiskProbe interface {
	Sample() DiskSample
}

// SamplerSources carries the optional engine- and host-level gauges a
// sampler reads each interval. Any field may be nil.
type SamplerSources struct {
	// BusUtil reports cumulative bus utilization.
	BusUtil func() float64
	// Issued reports per-disk requests issued by the host so far.
	Issued func() uint64
	// Active reports the host's in-flight streams or records.
	Active func() int
	// HostCache reports the live host buffer cache's counters (live
	// replay mode only).
	HostCache func() bufcache.Counters
	// DiskTimeouts reports the host watchdog's cumulative timeout count
	// for one disk (degraded-mode runs only).
	DiskTimeouts func(disk int) uint64
}

// metricsHeader is the CSV schema, documented in DESIGN.md.
var metricsHeader = []string{
	"run", "time", "disk",
	"util", "queue",
	"store_blocks", "store_cap", "occupancy", "evictions",
	"pinned", "pinned_cap", "pinned_frac", "pinned_dirty",
	"media_blocks", "req_blocks", "ra_efficiency",
	"sim_events", "sim_pending", "bus_util",
	"issued", "active", "host_hits", "host_misses",
	"retries", "remaps", "timeouts",
}

// MetricsHeaderLine is the schema row as the sink emits it, shared by
// every sampler writing into one metrics file.
func MetricsHeaderLine() string { return strings.Join(metricsHeader, ",") + "\n" }

// samplerSpillBytes bounds the encoded rows a sampler retains before
// streaming them to its sink: memory is a function of the batch size
// and the disk count, never of the makespan.
const samplerSpillBytes = 32 << 10

// Sampler periodically snapshots every probe while the simulation runs
// and streams one CSV row per (interval, disk) to its sink in bounded
// batches. It keeps itself alive only while other events are pending,
// so it never prevents the simulation from draining. With a nil sink
// the sampler is inert: no tick is scheduled and no row is ever
// formatted — sampling without a destination is pure waste.
type Sampler struct {
	run      string
	interval float64
	disks    []DiskProbe
	src      SamplerSources

	sm   *sim.Simulator
	prev []DiskSample
	sink *Sink
	// runField is the run label pre-encoded as a CSV field; buf is the
	// reused batch buffer; spilled records that a batch reached the
	// sink before Close.
	runField string
	buf      []byte
	spilled  bool
}

// NewSampler returns a sampler for the given drives writing through
// sink (nil disables sampling entirely). interval is the virtual-time
// sampling period in seconds.
func NewSampler(run string, interval float64, disks []DiskProbe, src SamplerSources, sink *Sink) *Sampler {
	return &Sampler{run: run, interval: interval, disks: disks, src: src,
		sink: sink, runField: csvField(run), prev: make([]DiskSample, len(disks))}
}

// Start arms the periodic sampling event on the simulator; a no-op
// without a sink. Must be called before the run's events are processed.
func (s *Sampler) Start(sm *sim.Simulator) {
	if s.sink == nil {
		return
	}
	s.sm = sm
	var tick sim.Event
	tick = func(now sim.Time) {
		s.sample(now)
		// Reschedule only while other events are pending: once the
		// simulation proper has drained, the chain stops.
		if sm.Pending() > 0 {
			sm.After(s.interval, tick)
		}
	}
	sm.After(s.interval, tick)
}

// Close flushes the buffered tail and reports the sink's first write
// error.
func (s *Sampler) Close() error {
	if s.sink == nil {
		return nil
	}
	if len(s.buf) > 0 {
		s.sink.Write(s.buf)
		s.buf = s.buf[:0]
	}
	return s.sink.Err()
}

// sample appends this interval's rows — one per disk — to the batch
// buffer, spilling it once it passes the byte threshold. Formatting is
// pure appends into reused storage; the hot loop allocates nothing.
func (s *Sampler) sample(now float64) {
	b := s.buf
	for i, d := range s.disks {
		cur := d.Sample()
		prev := s.prev[i]
		s.prev[i] = cur

		b = append(b, s.runField...)
		b = append(b, ',')
		b = strconv.AppendFloat(b, now, 'f', 6, 64)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ',')
		b = appendG6(b, (cur.Busy-prev.Busy)/s.interval) // util
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(cur.Queue), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(cur.StoreLen), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(cur.StoreCap), 10)
		b = append(b, ',')
		occupancy := 0.0
		if cur.StoreCap > 0 {
			occupancy = float64(cur.StoreLen) / float64(cur.StoreCap)
		}
		b = appendG6(b, occupancy)
		b = append(b, ',')
		b = strconv.AppendUint(b, cur.StoreEvictions, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(cur.Pinned), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(cur.PinnedCap), 10)
		b = append(b, ',')
		pinnedFrac := 0.0
		if cur.PinnedCap > 0 {
			pinnedFrac = float64(cur.Pinned) / float64(cur.PinnedCap)
		}
		b = appendG6(b, pinnedFrac)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(cur.PinnedDirty), 10)
		b = append(b, ',')
		mediaDelta := cur.MediaBlocks - prev.MediaBlocks
		reqDelta := cur.RequestedBlocks - prev.RequestedBlocks
		b = strconv.AppendUint(b, mediaDelta, 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, reqDelta, 10)
		b = append(b, ',')
		if mediaDelta > 0 {
			// Requested blocks per media block moved: 1.0 means no
			// read-ahead waste, <1 means speculative transfer, >1 means
			// cache hits served traffic without media work.
			b = appendG6(b, float64(reqDelta)/float64(mediaDelta))
		}
		b = append(b, ',')
		b = strconv.AppendUint(b, s.sm.Processed(), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.sm.Pending()), 10)
		b = append(b, ',')
		if s.src.BusUtil != nil {
			b = appendG6(b, s.src.BusUtil())
		}
		b = append(b, ',')
		if s.src.Issued != nil {
			b = strconv.AppendUint(b, s.src.Issued(), 10)
		}
		b = append(b, ',')
		if s.src.Active != nil {
			b = strconv.AppendInt(b, int64(s.src.Active()), 10)
		}
		b = append(b, ',')
		if s.src.HostCache != nil {
			c := s.src.HostCache()
			b = strconv.AppendUint(b, c.Hits, 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, c.Misses, 10)
		} else {
			b = append(b, ',')
		}
		b = append(b, ',')
		b = strconv.AppendUint(b, cur.Retries, 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, cur.Remaps, 10)
		b = append(b, ',')
		if s.src.DiskTimeouts != nil {
			b = strconv.AppendUint(b, s.src.DiskTimeouts(i), 10)
		}
		b = append(b, '\n')
	}
	if len(b) >= samplerSpillBytes {
		s.sink.Write(b)
		b = b[:0]
		s.spilled = true
	}
	s.buf = b
}

// appendG6 appends a float the way the buffered sampler always
// formatted them: %.6g.
func appendG6(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', 6, 64)
}

// csvField encodes one value under encoding/csv's quoting rules
// (UseCRLF off), so the streamed rows stay byte-identical to rows
// written through the stdlib writer. Only the run label ever needs
// this — every other field is plain numeric.
func csvField(f string) string {
	if !csvFieldNeedsQuotes(f) {
		return f
	}
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			sb.WriteString(`""`)
			continue
		}
		sb.WriteByte(f[i])
	}
	sb.WriteByte('"')
	return sb.String()
}

// csvFieldNeedsQuotes mirrors encoding/csv's fieldNeedsQuotes for the
// default comma.
func csvFieldNeedsQuotes(f string) bool {
	if f == "" {
		return false
	}
	if f == `\.` {
		return true
	}
	if strings.ContainsAny(f, "\"\r\n,") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(f)
	return unicode.IsSpace(r)
}
