package diskthru

import (
	"fmt"
	"io"
	"sync"

	"diskthru/internal/array"
	"diskthru/internal/host"
	"diskthru/internal/trace"
	"diskthru/internal/workload"
)

// Workload is an opaque handle on a file-system layout plus the
// disk-level trace to replay against it. Concurrent runs may share one
// Workload.
type Workload struct {
	inner *workload.Workload

	// ranked holds each planner's HDC block ranking (index 1 for
	// PlannerHistory, 0 otherwise). The first HDC run that needs one
	// computes it; every later run, whatever its array or region size,
	// shares it read-only.
	ranked [2]blockRanking
}

type blockRanking struct {
	once   sync.Once
	blocks []int64
}

// hdcPlan is the per-logical-disk pin plan a run with cfg installs on
// an array striped by s whose controllers pin perDisk blocks each:
// host.PlanHDC over the planner's trace, twice perDisk per mirrored pair
// under CoopHDC.
func (w *Workload) hdcPlan(cfg Config, s array.Striper, perDisk int) [][]int64 {
	if cfg.CoopHDC {
		perDisk *= 2
	}
	return host.PlanHDCRanked(w.rankedBlocks(cfg.Planner), s, perDisk)
}

// rankedBlocks returns host.RankBlocks over the planner's planning
// trace, computing it on first use.
func (w *Workload) rankedBlocks(p HDCPlanner) []int64 {
	r := &w.ranked[0]
	if p == PlannerHistory {
		r = &w.ranked[1]
	}
	r.once.Do(func() {
		r.blocks = host.RankBlocks(planningTrace(w.inner.Trace, p), w.inner.Layout)
	})
	return r.blocks
}

// planningTrace applies the planner selection to the disk-level trace.
func planningTrace(t *trace.Trace, p HDCPlanner) *trace.Trace {
	if p == PlannerHistory {
		half := len(t.Records) / 2
		return &trace.Trace{Records: t.Records[:half]}
	}
	return t
}

// Name reports the workload's label ("web", "proxy", "file",
// "synthetic-16KB", ...).
func (w *Workload) Name() string { return w.inner.Name }

// Records reports the disk-level trace length (for a generated source
// workload, the stream length).
func (w *Workload) Records() int {
	if w.inner.Trace == nil {
		return w.inner.SourceRecords
	}
	return w.inner.Trace.Len()
}

// WriteFraction reports the fraction of trace records that are writes
// (for a generated source workload, the configured probability).
func (w *Workload) WriteFraction() float64 {
	if w.inner.Trace == nil {
		return w.inner.SourceWriteFraction
	}
	return w.inner.Trace.WriteFraction()
}

// Streams reports the paper's stream count for this server type.
func (w *Workload) Streams() int { return w.inner.Streams }

// Files reports how many files the layout holds.
func (w *Workload) Files() int { return w.inner.Layout.NumFiles() }

// FootprintBlocks reports the allocated volume extent in 4-KB blocks.
func (w *Workload) FootprintBlocks() int64 { return w.inner.Layout.UsedBlocks() }

// AvgFileBlocks reports the mean requested size in blocks.
func (w *Workload) AvgFileBlocks() int { return w.inner.AvgFileBlocks }

// EncodeTrace writes the disk-level trace in the binary trace format.
// Source workloads have no materialized trace to encode.
func (w *Workload) EncodeTrace(dst io.Writer) error {
	if w.inner.Trace == nil {
		return fmt.Errorf("diskthru: %s generates records on the fly; there is no trace to encode", w.Name())
	}
	return trace.Encode(dst, w.inner.Trace)
}

// BlockAccessCounts returns the access count of the n most-accessed
// logical blocks, most popular first — the data behind Figure 2. Nil
// for source workloads, which never materialize their access stream.
func (w *Workload) BlockAccessCounts(n int) []int {
	if w.inner.Trace == nil {
		return nil
	}
	top := w.inner.Trace.BlockCounts(w.inner.Layout).TopN(n)
	out := make([]int, len(top))
	for i, bc := range top {
		out[i] = bc.Count
	}
	return out
}

// SyntheticOptions configures the section 6.2 synthetic workload.
type SyntheticOptions struct {
	// Requests is the trace length (paper: 10 000).
	Requests int
	// FileKB is the uniform file size (paper sweeps 4-128 KB).
	FileKB int
	// ZipfAlpha is the popularity skew (paper default 0.4).
	ZipfAlpha float64
	// WriteFraction is the probability a request is a write.
	WriteFraction float64
	// FootprintMB sets the data-set size (default 1024).
	FootprintMB int
	// FragProb is the per-junction fragmentation probability.
	FragProb float64
	// Seed makes generation deterministic (default 1).
	Seed int64
	// VolumeBlocks overrides the logical-volume size (default: the full
	// 8-disk array); required for arrays with less usable capacity
	// (fewer disks, mirroring).
	VolumeBlocks int64
}

// SyntheticWorkload builds the paper's controlled synthetic trace.
// Zero-valued options other than FileKB take the paper's defaults.
func SyntheticWorkload(opts SyntheticOptions) (*Workload, error) {
	cfg := workload.DefaultSynthetic(opts.FileKB)
	if opts.Requests > 0 {
		cfg.Requests = opts.Requests
	}
	if opts.ZipfAlpha > 0 {
		cfg.ZipfAlpha = opts.ZipfAlpha
	}
	if opts.WriteFraction > 0 {
		cfg.WriteFraction = opts.WriteFraction
	}
	if opts.FootprintMB > 0 {
		cfg.FootprintMB = opts.FootprintMB
	}
	if opts.FragProb > 0 {
		cfg.FragProb = opts.FragProb
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.VolumeBlocks > 0 {
		cfg.VolumeBlocks = opts.VolumeBlocks
	}
	w, err := workload.Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	return &Workload{inner: w}, nil
}

// WebWorkload synthesizes the Rutgers Web-server workload at the given
// scale (1.0 = the paper's 1.7 M requests over 70 K files).
func WebWorkload(scale float64) (*Workload, error) {
	w, err := workload.Web(workload.DefaultWeb(scale))
	if err != nil {
		return nil, err
	}
	return &Workload{inner: w}, nil
}

// ProxyWorkload synthesizes the AT&T Hummingbird proxy workload at the
// given scale (1.0 = 750 K requests over 440 K URLs).
func ProxyWorkload(scale float64) (*Workload, error) {
	w, err := workload.Proxy(workload.DefaultProxy(scale))
	if err != nil {
		return nil, err
	}
	return &Workload{inner: w}, nil
}

// FileServerWorkload synthesizes the HP Labs file-server workload at the
// given scale (1.0 = 9.5 M requests over 30 K files, 16 GB footprint).
func FileServerWorkload(scale float64) (*Workload, error) {
	w, err := workload.FileServer(workload.DefaultFileServer(scale))
	if err != nil {
		return nil, err
	}
	return &Workload{inner: w}, nil
}

// LongRunOptions configures the open-loop longrun workload. Hours is
// required; every other zero value takes the default multi-tenant mix
// (8 tenants, 2048 x 16 KB files each, 400 arrivals/s aggregate).
type LongRunOptions struct {
	// Hours is the target makespan in simulated hours.
	Hours float64
	// Tenants, FilesPerTenant, FileKB shape the data set.
	Tenants        int
	FilesPerTenant int
	FileKB         int
	// ZipfAlpha is the within-tenant popularity skew, TenantSkew the
	// across-tenant one.
	ZipfAlpha  float64
	TenantSkew float64
	// WriteFraction is the probability a request is a write.
	WriteFraction float64
	// RatePerSecond is the aggregate arrival rate the stream is sized
	// for; pass the same value as Config.ArrivalRate.
	RatePerSecond float64
	// Seed makes generation deterministic (default 1).
	Seed int64
	// VolumeBlocks overrides the logical-volume size.
	VolumeBlocks int64
}

// LongRunWorkload builds the constant-memory open-loop workload: a
// multi-tenant Poisson arrival stream generated record by record, never
// materialized, sized to run for Hours of simulated time. Replay it
// with Config.ArrivalRate = RatePerSecond: the whole run — generation,
// replay, telemetry and the streaming latency statistics every source
// workload gets — holds memory independent of the makespan.
func LongRunWorkload(opts LongRunOptions) (*Workload, error) {
	cfg := workload.DefaultLongRun(opts.Hours)
	if opts.Tenants > 0 {
		cfg.Tenants = opts.Tenants
	}
	if opts.FilesPerTenant > 0 {
		cfg.FilesPerTenant = opts.FilesPerTenant
	}
	if opts.FileKB > 0 {
		cfg.FileKB = opts.FileKB
	}
	if opts.ZipfAlpha > 0 {
		cfg.ZipfAlpha = opts.ZipfAlpha
	}
	if opts.TenantSkew > 0 {
		cfg.TenantSkew = opts.TenantSkew
	}
	if opts.WriteFraction > 0 {
		cfg.WriteFraction = opts.WriteFraction
	}
	if opts.RatePerSecond > 0 {
		cfg.RatePerSecond = opts.RatePerSecond
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.VolumeBlocks > 0 {
		cfg.VolumeBlocks = opts.VolumeBlocks
	}
	w, err := workload.LongRun(cfg)
	if err != nil {
		return nil, err
	}
	return &Workload{inner: w}, nil
}

// ArrivalRateFor reports the arrival rate a longrun workload was sized
// for, so callers can mirror it into Config.ArrivalRate.
func (w *Workload) ArrivalRateFor() float64 {
	if w.inner.NewSource == nil {
		return 0
	}
	return w.inner.SourceRate
}

// MailWorkload synthesizes an mbox-style mail-server workload at the
// given scale: mailbox deliveries (appends), tail reads, and full
// scans, with strong active-user skew. One of the server classes the
// paper's introduction motivates but does not trace.
func MailWorkload(scale float64) (*Workload, error) {
	w, err := workload.Mail(workload.DefaultMail(scale))
	if err != nil {
		return nil, err
	}
	return &Workload{inner: w}, nil
}

// MediaWorkload synthesizes a streaming-media server: concurrent
// sessions reading large files strictly sequentially — blind
// read-ahead's best case, where FOR must merely not lose.
func MediaWorkload(scale float64) (*Workload, error) {
	w, err := workload.Media(workload.DefaultMedia(scale))
	if err != nil {
		return nil, err
	}
	return &Workload{inner: w}, nil
}

// OLTPWorkload synthesizes a transaction-processing database: random
// single-page reads/updates over huge tables plus sequential log
// appends — read-ahead's worst case and FOR's best.
func OLTPWorkload(scale float64) (*Workload, error) {
	w, err := workload.OLTP(workload.DefaultOLTP(scale))
	if err != nil {
		return nil, err
	}
	return &Workload{inner: w}, nil
}
