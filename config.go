package diskthru

import (
	"fmt"
	"math"

	"diskthru/internal/cache"
	"diskthru/internal/disk"
	"diskthru/internal/fault"
	"diskthru/internal/probe"
	"diskthru/internal/sched"
)

// System identifies a controller cache-management scheme under test, in
// the paper's terminology.
type System int

const (
	// Segm is the conventional drive: segment cache, whole-victim LRU,
	// blind read-ahead of one segment. The paper's baseline.
	Segm System = iota
	// Block keeps blind read-ahead but replaces the segment cache with a
	// block pool.
	Block
	// NoRA is a block cache with read-ahead disabled.
	NoRA
	// FOR is the paper's File-Oriented Read-ahead: a block pool with MRU
	// replacement plus bitmap-bounded read-ahead.
	FOR
)

// String names the system as in the paper's figures.
func (s System) String() string {
	switch s {
	case Segm:
		return "Segm"
	case Block:
		return "Block"
	case NoRA:
		return "No-RA"
	case FOR:
		return "FOR"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Scheduler selects the per-controller request-scheduling discipline.
type Scheduler int

const (
	// LOOK is the paper's elevator discipline (default).
	LOOK Scheduler = iota
	// FCFS services requests in arrival order.
	FCFS
	// SSTF picks the shortest seek first.
	SSTF
	// CLOOK sweeps in one direction and wraps.
	CLOOK
)

// String names the discipline.
func (s Scheduler) String() string { return s.internal().String() }

func (s Scheduler) internal() sched.Policy {
	switch s {
	case FCFS:
		return sched.FCFS
	case SSTF:
		return sched.SSTF
	case CLOOK:
		return sched.CLOOK
	default:
		return sched.LOOK
	}
}

// HDCPlanner selects how the host chooses the blocks to pin.
type HDCPlanner int

const (
	// PlannerPerfect ranks blocks by their access counts over the whole
	// trace — the paper's "perfect knowledge of the future" evaluation
	// methodology (section 6.1).
	PlannerPerfect HDCPlanner = iota
	// PlannerHistory ranks blocks using only the first half of the trace
	// — the deployable previous-period policy the paper proposes for
	// production (section 5).
	PlannerHistory
)

// String names the planner.
func (p HDCPlanner) String() string {
	if p == PlannerHistory {
		return "history"
	}
	return "perfect"
}

// Config mirrors the paper's Table 1 plus the host-side replay
// parameters. The zero value is not valid; start from DefaultConfig.
type Config struct {
	// Disks is the array width (Table 1: 8).
	Disks int
	// StripeKB is the striping-unit size in KB (Table 1 default: 128).
	StripeKB int
	// CacheKB is each controller's memory in KB (Table 1: 4096).
	CacheKB int
	// SegmentKB is the segment / read-ahead unit in KB (Table 1: 128).
	SegmentKB int
	// MaxSegments caps the segment count (Table 1: 27 at 128 KB).
	MaxSegments int
	// HDCKB is the per-controller host-guided region in KB (0 = off).
	HDCKB int

	// System selects the cache-management scheme.
	System System
	// Scheduler selects the controller queue discipline.
	Scheduler Scheduler
	// Planner selects how HDC contents are chosen.
	Planner HDCPlanner

	// Streams overrides the workload's stream count when positive.
	Streams int
	// ArrivalRate, when positive, switches the replay open-loop: records
	// arrive as a Poisson process at this rate (records/second) and
	// Result carries response-time percentiles. Zero (default) replays
	// closed-loop "as fast as possible", the paper's methodology.
	ArrivalRate float64
	// FailedDisk, when in [1, Disks], marks that physical disk as down;
	// its mirror partner absorbs the load. Requires Mirrored.
	FailedDisk int
	// CoalesceProb is the request-coalescing probability (paper: 0.87).
	CoalesceProb float64
	// Seed drives the host's coalescing coin flips.
	Seed int64
	// FlushHDCAtEnd charges the final flush_hdc() to the measured time
	// (the paper's end-of-run dirty-block update).
	FlushHDCAtEnd bool
	// SyncHDCSeconds issues flush_hdc() on every disk at this virtual
	// period, like the Unix 30-second sync; the paper measured its cost
	// as < 1%. Zero (default) syncs only at the end of the run.
	SyncHDCSeconds float64
	// SequentialIssue makes each stream dispatch a record's sub-requests
	// one at a time instead of all at once — an ablation that recreates
	// the synchronous-read() pattern behind the paper's Figure 4.
	SequentialIssue bool
	// Mirrored enables RAID-1: the logical volume stripes over Disks/2
	// drive pairs; reads pick one replica, writes commit on both
	// (section 2.2's redundancy requirement). Requires an even Disks.
	Mirrored bool
	// CoopHDC splits each pair's HDC plan between the two replicas
	// instead of duplicating it, doubling the distinct pinned blocks;
	// reads route to the replica holding the pin. This implements the
	// cooperative controller caching the paper leaves as future work
	// (section 5). Requires Mirrored.
	CoopHDC bool
	// FOREvictLRU switches FOR's block pool from the paper's MRU policy
	// to LRU — an ablation knob, not a paper configuration.
	FOREvictLRU bool
	// ZonedGeometry models zoned bit recording: outer cylinders hold
	// ~23% more sectors per track than inner ones (average unchanged),
	// so transfer rates depend on layout position. Off by default; the
	// paper's model is uniform.
	ZonedGeometry bool
	// Telemetry, when non-nil, records this run's request trace and
	// time-series metrics (see internal/probe). It is a pure observer:
	// every simulation result is bit-identical with it on or off. When
	// nil, the process-wide default installed by SetDefaultTelemetry
	// applies (nil again means telemetry off, the default).
	Telemetry *probe.Telemetry
	// Progress, when non-nil, receives coarse live-progress deltas from
	// the replay engine (events fired, virtual seconds advanced),
	// sampled every few thousand events so the hot path stays
	// allocation-free. Like Telemetry it is a pure observer — results
	// are byte-identical with it attached or not — and unlike Telemetry
	// it is cheap enough to leave on for every daemon job. The
	// experiment runner threads Options.Progress through this field.
	Progress *probe.Progress
	// Faults, when non-nil, installs a deterministic fault injector on
	// every disk (see internal/fault): transient media errors, latent
	// sector ranges, and scheduled whole-disk deaths. Nil (default)
	// disables fault modeling entirely; the run is byte-identical to one
	// built before the fault model existed.
	Faults *fault.Profile
	// RequestTimeoutSeconds, when positive, arms the host watchdog: a
	// per-disk request not completed within this many virtual seconds
	// marks the disk down and redirects its blocks to the survivors
	// (degraded-mode striping). Requires an unmirrored array; zero
	// (default) disables the watchdog.
	RequestTimeoutSeconds float64
}

// DefaultConfig returns the paper's Table 1 configuration with the Segm
// baseline.
func DefaultConfig() Config {
	return Config{
		Disks:         8,
		StripeKB:      128,
		CacheKB:       4096,
		SegmentKB:     128,
		MaxSegments:   27,
		HDCKB:         0,
		System:        Segm,
		Scheduler:     LOOK,
		Planner:       PlannerPerfect,
		Streams:       0,
		CoalesceProb:  0.87,
		Seed:          42,
		FlushHDCAtEnd: true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Disks <= 0:
		return fmt.Errorf("diskthru: %d disks", c.Disks)
	case c.StripeKB <= 0 || c.StripeKB%4 != 0:
		return fmt.Errorf("diskthru: striping unit %d KB must be a positive multiple of 4", c.StripeKB)
	case c.CacheKB <= 0:
		return fmt.Errorf("diskthru: controller cache %d KB", c.CacheKB)
	case c.SegmentKB <= 0 || c.SegmentKB%4 != 0:
		return fmt.Errorf("diskthru: segment %d KB must be a positive multiple of 4", c.SegmentKB)
	case c.MaxSegments <= 0:
		return fmt.Errorf("diskthru: max segments %d", c.MaxSegments)
	case c.HDCKB < 0:
		return fmt.Errorf("diskthru: negative HDC size")
	case c.HDCKB >= c.CacheKB:
		return fmt.Errorf("diskthru: HDC %d KB leaves no read-ahead cache in %d KB", c.HDCKB, c.CacheKB)
	case !(c.CoalesceProb >= 0 && c.CoalesceProb <= 1):
		return fmt.Errorf("diskthru: coalescing probability %v", c.CoalesceProb)
	case c.Streams < 0:
		return fmt.Errorf("diskthru: %d streams", c.Streams)
	case c.Mirrored && c.Disks%2 != 0:
		return fmt.Errorf("diskthru: mirroring needs an even disk count, got %d", c.Disks)
	case c.CoopHDC && !c.Mirrored:
		return fmt.Errorf("diskthru: cooperative HDC requires mirroring")
	case c.ArrivalRate < 0:
		return fmt.Errorf("diskthru: negative arrival rate")
	case !finite(c.ArrivalRate):
		return fmt.Errorf("diskthru: arrival rate %v is not finite", c.ArrivalRate)
	case !finite(c.SyncHDCSeconds):
		return fmt.Errorf("diskthru: sync period %v is not finite", c.SyncHDCSeconds)
	case c.FailedDisk < 0 || c.FailedDisk > c.Disks:
		return fmt.Errorf("diskthru: failed disk %d of %d", c.FailedDisk, c.Disks)
	case c.FailedDisk > 0 && !c.Mirrored:
		return fmt.Errorf("diskthru: failing a disk requires mirroring")
	case c.RequestTimeoutSeconds < 0:
		return fmt.Errorf("diskthru: negative request timeout")
	case !finite(c.RequestTimeoutSeconds):
		return fmt.Errorf("diskthru: request timeout %v is not finite", c.RequestTimeoutSeconds)
	case c.RequestTimeoutSeconds > 0 && c.Mirrored:
		return fmt.Errorf("diskthru: request timeout supports only unmirrored arrays")
	}
	if c.Faults != nil {
		if err := c.Faults.ValidateFor(c.Disks); err != nil {
			return err
		}
	}
	switch c.System {
	case Segm, Block, NoRA, FOR:
	default:
		return fmt.Errorf("diskthru: unknown system %d", int(c.System))
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite: times and rates
// that reach the event queue must be.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// WithSystem returns a copy running the given system.
func (c Config) WithSystem(s System) Config { c.System = s; return c }

// telemetry resolves the effective telemetry coordinator for a run:
// the config's own, else the process default, else nil (off).
func (c Config) telemetry() *probe.Telemetry {
	if c.Telemetry != nil {
		return c.Telemetry
	}
	return defaultTelemetry
}

// WithHDC returns a copy with the given per-controller HDC size in KB.
func (c Config) WithHDC(kb int) Config { c.HDCKB = kb; return c }

// commandOverhead is the fixed per-media-operation controller cost in
// seconds (command decode, setup, completion) — ~300 us, typical for
// Ultra160-era SCSI drives.
const commandOverhead = 0.0003

// diskConfig translates the facade config for one drive.
func (c Config) diskConfig() disk.Config {
	dc := disk.Config{
		Sched:           c.Scheduler.internal(),
		CacheBytes:      c.CacheKB << 10,
		SegmentBytes:    c.SegmentKB << 10,
		MaxSegments:     c.MaxSegments,
		HDCBytes:        c.HDCKB << 10,
		CommandOverhead: commandOverhead,
	}
	switch c.System {
	case Segm:
		dc.Org = disk.OrgSegment
		dc.ReadAhead = disk.RABlind
	case Block:
		dc.Org = disk.OrgBlock
		dc.BlockEvict = cache.EvictLRU
		dc.ReadAhead = disk.RABlind
	case NoRA:
		dc.Org = disk.OrgBlock
		dc.BlockEvict = cache.EvictLRU
		dc.ReadAhead = disk.RANone
	case FOR:
		dc.Org = disk.OrgBlock
		dc.BlockEvict = cache.EvictMRU
		if c.FOREvictLRU {
			dc.BlockEvict = cache.EvictLRU
		}
		dc.ReadAhead = disk.RAFOR
	}
	return dc
}
