// Package workload builds the disk-level workloads the paper evaluates:
// the controlled synthetic trace of section 6.2 and synthetic stand-ins
// for the three real server traces of section 6.3 (Rutgers Web, AT&T
// Hummingbird proxy, HP Labs file server), which are not publicly
// available. Each stand-in reproduces the published trace statistics the
// results depend on — file-size mix, popularity skew, write ratio,
// footprint, and buffer-cache filtering — as documented in DESIGN.md.
package workload

import (
	"fmt"
	"math/rand"

	"diskthru/internal/dist"
	"diskthru/internal/fslayout"
	"diskthru/internal/trace"
)

// BlockSize is the file-system block size used throughout (paper: 4 KB).
const BlockSize = 4096

// DefaultVolumeBlocks is the logical-volume size every workload is laid
// out on: the paper's full 8-disk array of 18-GB drives (8 x 4 718 560
// blocks). Laying data over the whole volume in block groups keeps seek
// distances realistic even for data sets much smaller than the array.
const DefaultVolumeBlocks = 8 * 4718560

// DefaultGroups is the number of FFS/ext2-style block groups the
// allocator spreads files over.
const DefaultGroups = 128

// Workload bundles a file-system layout with the disk-level trace to
// replay against it, plus the replay parameters the paper fixes per
// server.
type Workload struct {
	Name   string
	Layout *fslayout.Layout
	Trace  *trace.Trace
	// Server is the server-level access stream the disk-level Trace was
	// filtered from; the live-replay mode (diskthru.RunLive, through
	// host.Host's buffer-cache stage) consumes it so the buffer cache
	// can be simulated in the loop. For the synthetic workload (no
	// buffer cache) it equals Trace.
	Server *trace.Trace

	// NewSource, when non-nil, marks a generated workload: records are
	// drawn from a deterministic generator instead of a materialized
	// Trace (which is then nil), so memory stays independent of the
	// record count. Each call returns a fresh generator positioned at
	// the first record; the generator reports false when the stream is
	// exhausted. Source workloads replay open-loop only.
	NewSource func() func() (trace.Record, bool)
	// SourceRecords and SourceWriteFraction describe a generated stream
	// the way Trace.Len and Trace.WriteFraction describe a materialized
	// one (the write fraction is the configured probability, not an
	// empirical count).
	SourceRecords       int
	SourceWriteFraction float64
	// SourceRate is the aggregate arrival rate (records/second) a
	// generated stream was sized for; callers mirror it into the
	// replay's ArrivalRate.
	SourceRate float64

	// Streams is the number of simultaneous I/O streams the paper's
	// server uses (Web: 16 helper threads; proxy/file: 128).
	Streams int
	// AvgFileBlocks is the mean requested size in blocks, used by the
	// HDC sizing rule.
	AvgFileBlocks int
}

// kbToBlocks converts a size in KB to whole blocks (minimum 1).
func kbToBlocks(kb float64) int {
	b := int(kb * 1024 / BlockSize)
	if b < 1 {
		b = 1
	}
	return b
}

// SyntheticConfig parameterizes the section 6.2 trace: Requests
// whole-file accesses over identical files, starting blocks drawn from a
// Bradford-Zipf distribution.
type SyntheticConfig struct {
	// Requests is the trace length (paper: 10 000).
	Requests int
	// FileKB is the uniform file size in KB (paper sweeps 4-128).
	FileKB int
	// ZipfAlpha is the popularity skew (paper default: 0.4).
	ZipfAlpha float64
	// WriteFraction is the probability a request writes its file
	// (paper sweeps 0-0.6; default 0).
	WriteFraction float64
	// FootprintMB is the total data-set size; it sets the number of
	// files the Zipf distribution ranges over.
	FootprintMB int
	// FragProb is the per-junction fragmentation probability (paper's
	// default synthetic setup avoids fragmentation).
	FragProb float64
	// Seed makes generation deterministic.
	Seed int64
	// VolumeBlocks overrides the logical-volume size (default: the full
	// 8-disk array). Smaller arrays and mirrored configurations need a
	// volume that fits their usable capacity.
	VolumeBlocks int64
}

// DefaultSynthetic returns the paper's defaults for the given file size.
func DefaultSynthetic(fileKB int) SyntheticConfig {
	return SyntheticConfig{
		Requests:      10000,
		FileKB:        fileKB,
		ZipfAlpha:     0.4,
		WriteFraction: 0,
		FootprintMB:   1024,
		FragProb:      0,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.Requests <= 0:
		return fmt.Errorf("workload: %d requests", c.Requests)
	case c.FileKB <= 0:
		return fmt.Errorf("workload: file size %d KB", c.FileKB)
	case c.ZipfAlpha < 0:
		return fmt.Errorf("workload: zipf alpha %v", c.ZipfAlpha)
	case c.WriteFraction < 0 || c.WriteFraction > 1:
		return fmt.Errorf("workload: write fraction %v", c.WriteFraction)
	case c.FootprintMB <= 0:
		return fmt.Errorf("workload: footprint %d MB", c.FootprintMB)
	case c.FragProb < 0 || c.FragProb >= 1:
		return fmt.Errorf("workload: fragmentation %v", c.FragProb)
	}
	return nil
}

// Synthetic builds the section 6.2 workload.
func Synthetic(cfg SyntheticConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fileBlocks := kbToBlocks(float64(cfg.FileKB))
	numFiles := cfg.FootprintMB * 1024 / cfg.FileKB
	if numFiles < 1 {
		numFiles = 1
	}
	rng := dist.NewRand(cfg.Seed)
	volume := cfg.VolumeBlocks
	if volume <= 0 {
		volume = DefaultVolumeBlocks
	}
	layout, err := layoutUniformFiles(numFiles, fileBlocks, volume, cfg.FragProb, rng)
	if err != nil {
		return nil, err
	}
	zipf := dist.NewZipf(numFiles, cfg.ZipfAlpha)
	tr := &trace.Trace{Records: make([]trace.Record, 0, cfg.Requests)}
	for i := 0; i < cfg.Requests; i++ {
		tr.Records = append(tr.Records, trace.Record{
			File:   int32(zipf.Rank(rng)),
			Blocks: int32(fileBlocks),
			Write:  dist.Bernoulli(rng, cfg.WriteFraction),
		})
	}
	return &Workload{
		Name:          fmt.Sprintf("synthetic-%dKB", cfg.FileKB),
		Layout:        layout,
		Trace:         tr,
		Server:        tr, // no buffer cache: server level == disk level
		Streams:       128,
		AvgFileBlocks: fileBlocks,
	}, nil
}

// layoutUniformFiles allocates count files of fileBlocks blocks each,
// spread over the volume.
func layoutUniformFiles(count, fileBlocks int, volume int64, fragProb float64, rng *rand.Rand) (*fslayout.Layout, error) {
	layout := fslayout.NewGrouped(volume, DefaultGroups)
	if fragProb == 0 {
		// Without holes the tables' final sizes are known: one
		// allocation each instead of a doubling series, which keeps
		// set-up clear of a garbage collection.
		layout.Reserve(count, fileBlocks)
	}
	for i := 0; i < count; i++ {
		if _, err := layout.Alloc(fileBlocks, fragProb, rng); err != nil {
			return nil, err
		}
	}
	return layout, nil
}
