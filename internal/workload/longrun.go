package workload

import (
	"fmt"

	"diskthru/internal/dist"
	"diskthru/internal/trace"
)

// LongRunConfig parameterizes the longrun workload: an open-loop,
// multi-tenant arrival stream meant to run for hours of simulated time.
// Unlike every other workload it never materializes a trace — records
// are generated one at a time as they arrive — so a week-long run costs
// the same memory as a second-long one. It exists to exercise (and
// benchmark) the constant-memory replay path: replay it with
// Config.ArrivalRate = RatePerSecond.
type LongRunConfig struct {
	// Tenants is the number of independent tenants sharing the array;
	// tenant popularity is Zipf(TenantSkew), so load is deliberately
	// imbalanced the way consolidated servers are.
	Tenants int
	// FilesPerTenant and FileKB shape each tenant's data set.
	FilesPerTenant int
	FileKB         int
	// ZipfAlpha is the within-tenant file-popularity skew.
	ZipfAlpha float64
	// TenantSkew is the across-tenant popularity skew.
	TenantSkew float64
	// WriteFraction is the probability a request is a write.
	WriteFraction float64
	// RatePerSecond is the aggregate Poisson arrival rate the stream is
	// sized for; Records derives the stream length from it.
	RatePerSecond float64
	// Hours is the target makespan in simulated hours.
	Hours float64
	// FragProb is the per-junction fragmentation probability.
	FragProb float64
	// Seed makes layout and generation deterministic.
	Seed int64
	// VolumeBlocks overrides the logical-volume size (default: the full
	// 8-disk array).
	VolumeBlocks int64
}

// DefaultLongRun returns a moderate multi-tenant mix sized for the
// given simulated makespan.
func DefaultLongRun(hours float64) LongRunConfig {
	return LongRunConfig{
		Tenants:        8,
		FilesPerTenant: 2048,
		FileKB:         16,
		ZipfAlpha:      0.4,
		TenantSkew:     0.6,
		WriteFraction:  0.1,
		RatePerSecond:  400,
		Hours:          hours,
		Seed:           1,
	}
}

// Records reports the stream length the configuration generates.
func (c LongRunConfig) Records() int {
	return int(c.RatePerSecond*c.Hours*3600 + 0.5)
}

// Validate reports configuration errors.
func (c LongRunConfig) Validate() error {
	switch {
	case c.Tenants <= 0:
		return fmt.Errorf("workload: %d tenants", c.Tenants)
	case c.FilesPerTenant <= 0:
		return fmt.Errorf("workload: %d files per tenant", c.FilesPerTenant)
	case c.FileKB <= 0:
		return fmt.Errorf("workload: file size %d KB", c.FileKB)
	case c.ZipfAlpha < 0 || c.TenantSkew < 0:
		return fmt.Errorf("workload: negative zipf skew")
	case c.WriteFraction < 0 || c.WriteFraction > 1:
		return fmt.Errorf("workload: write fraction %v", c.WriteFraction)
	case c.RatePerSecond <= 0:
		return fmt.Errorf("workload: arrival rate %v", c.RatePerSecond)
	case c.Hours <= 0:
		return fmt.Errorf("workload: %v hours", c.Hours)
	case c.FragProb < 0 || c.FragProb >= 1:
		return fmt.Errorf("workload: fragmentation %v", c.FragProb)
	case c.Records() < 1:
		return fmt.Errorf("workload: rate %v over %v hours generates no records", c.RatePerSecond, c.Hours)
	}
	return nil
}

// LongRun builds the open-loop source workload: the layout is
// materialized (the array needs it), the record stream is not.
func LongRun(cfg LongRunConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fileBlocks := kbToBlocks(float64(cfg.FileKB))
	numFiles := cfg.Tenants * cfg.FilesPerTenant
	rng := dist.NewRand(cfg.Seed)
	volume := cfg.VolumeBlocks
	if volume <= 0 {
		volume = DefaultVolumeBlocks
	}
	layout, err := layoutUniformFiles(numFiles, fileBlocks, volume, cfg.FragProb, rng)
	if err != nil {
		return nil, err
	}
	tenantZipf := dist.NewZipf(cfg.Tenants, cfg.TenantSkew)
	fileZipf := dist.NewZipf(cfg.FilesPerTenant, cfg.ZipfAlpha)
	records := cfg.Records()
	return &Workload{
		Name:   fmt.Sprintf("longrun-%gh", cfg.Hours),
		Layout: layout,
		// Every NewSource call restarts the same deterministic stream:
		// the generator seed is fixed and independent of the layout rng.
		NewSource: func() func() (trace.Record, bool) {
			rng := dist.NewRand(cfg.Seed + 0x5deece66d)
			remaining := records
			return func() (trace.Record, bool) {
				if remaining == 0 {
					return trace.Record{}, false
				}
				remaining--
				tenant := tenantZipf.Rank(rng)
				file := tenant*cfg.FilesPerTenant + fileZipf.Rank(rng)
				return trace.Record{
					File:   int32(file),
					Blocks: int32(fileBlocks),
					Write:  dist.Bernoulli(rng, cfg.WriteFraction),
				}, true
			}
		},
		SourceRecords:       records,
		SourceWriteFraction: cfg.WriteFraction,
		SourceRate:          cfg.RatePerSecond,
		Streams:             128,
		AvgFileBlocks:       fileBlocks,
	}, nil
}
