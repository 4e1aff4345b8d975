package workload

import (
	"fmt"
	"math/rand"

	"diskthru/internal/bufcache"
	"diskthru/internal/dist"
	"diskthru/internal/fslayout"
	"diskthru/internal/trace"
)

// filter streams server-level block accesses through a simulated buffer
// cache and accumulates the surviving disk-level records, the stage the
// paper implemented by instrumenting the Linux 2.4.18 kernel.
//
// Every disturbEvery server-level accesses the cache is cleared — the
// cold restarts and working-set turnover a multi-day production trace
// contains. Without this, an IID request stream against an LRU cache
// never re-misses its resident hot set and the residual (disk-level)
// popularity loses the head the paper's Figure 2 shows (hottest blocks
// re-fetched ~80-90 times). Zero disables disturbance.
type filter struct {
	layout       *fslayout.Layout
	cache        *bufcache.Cache
	records      []trace.Record
	server       []trace.Record
	disturbEvery int
	accesses     int
}

func newFilter(layout *fslayout.Layout, cacheBlocks, disturbEvery int) *filter {
	return &filter{
		layout:       layout,
		cache:        bufcache.New(cacheBlocks),
		disturbEvery: disturbEvery,
	}
}

// access runs one server-level access. Read misses group into contiguous
// disk reads; writes dirty the cache and surface as disk writes when
// evicted (or at Close), which is how the buffer cache merges writes.
func (f *filter) access(file, offset, blocks int, write bool) {
	f.accesses++
	f.server = append(f.server, trace.Record{
		File: int32(file), Offset: int32(offset), Blocks: int32(blocks), Write: write,
	})
	if f.disturbEvery > 0 && f.accesses%f.disturbEvery == 0 {
		for _, b := range f.cache.Clear() {
			f.emitWriteback(b)
		}
	}
	fb := f.layout.FileBlocks(file)
	if offset >= len(fb) {
		return
	}
	end := offset + blocks
	if end > len(fb) {
		end = len(fb)
	}
	runStart, runLen := 0, 0
	flushRun := func() {
		if runLen > 0 {
			f.records = append(f.records, trace.Record{
				File:   int32(file),
				Offset: int32(runStart),
				Blocks: int32(runLen),
			})
			runLen = 0
		}
	}
	for i := offset; i < end; i++ {
		miss, ev := f.cache.Access(fb[i], write)
		if ev.Happened && ev.Dirty {
			f.emitWriteback(ev.Block)
		}
		if miss && !write {
			if runLen == 0 {
				runStart = i
			} else if runStart+runLen != i {
				flushRun()
				runStart = i
			}
			runLen++
		} else if !write {
			flushRun()
		}
	}
	flushRun()
}

// emitWriteback records the disk write of an evicted dirty block.
func (f *filter) emitWriteback(block int64) {
	file, off, ok := f.layout.Owner(block)
	if !ok {
		return // hole: cannot happen for cached blocks, but stay safe
	}
	f.records = append(f.records, trace.Record{
		File:   int32(file),
		Offset: int32(off),
		Blocks: 1,
		Write:  true,
	})
}

// close flushes remaining dirty blocks and returns the coalesced
// disk-level trace plus the captured server-level stream.
func (f *filter) close() (diskLevel, serverLevel *trace.Trace) {
	for _, b := range f.cache.FlushDirty() {
		f.emitWriteback(b)
	}
	f.cache = nil
	return trace.CoalesceAdjacent(&trace.Trace{Records: f.records}),
		&trace.Trace{Records: f.server}
}

// allocSizedFiles lays out count files whose sizes (in blocks) come from
// draw, returning the layout and per-file sizes. Files spread over the
// full array volume in block groups.
func allocSizedFiles(count int, fragProb float64,
	rng *rand.Rand, draw func() int) (*fslayout.Layout, []int, error) {
	layout := fslayout.NewGrouped(DefaultVolumeBlocks, DefaultGroups)
	sizes := make([]int, count)
	for i := 0; i < count; i++ {
		n := draw()
		if n < 1 {
			n = 1
		}
		if _, err := layout.Alloc(n, fragProb, rng); err != nil {
			return nil, nil, fmt.Errorf("workload: allocating file %d: %w", i, err)
		}
		sizes[i] = n
	}
	return layout, sizes, nil
}

// ---- Web server ----------------------------------------------------------------

// WebConfig synthesizes the Rutgers Web workload: 1.7 M requests to ~70 K
// files averaging 21.5 KB, 2% writes, 1.7 GB footprint, filtered by the
// host's buffer cache.
type WebConfig struct {
	Requests      int
	Files         int
	MeanFileKB    float64
	MedianFileKB  float64
	ZipfAlpha     float64
	WriteFraction float64
	BufferCacheMB int
	// Disturbances is how many cache cold-restarts the trace window
	// contains (sets the residual re-fetch count of the hottest blocks,
	// ~80-90 in the paper's traces). Zero disables disturbance.
	Disturbances int
	FragProb     float64
	Seed         int64
}

// DefaultWeb returns the calibrated configuration at the given scale
// (1.0 = paper scale; benchmarks use ~0.05-0.125).
func DefaultWeb(scale float64) WebConfig {
	return WebConfig{
		Requests:      scaled(1700000, scale),
		Files:         scaled(70000, scale),
		MeanFileKB:    21.5,
		MedianFileKB:  8,
		ZipfAlpha:     0.75,
		WriteFraction: 0.02,
		BufferCacheMB: scaled(384, scale),
		Disturbances:  40,
		FragProb:      0.03,
		Seed:          2,
	}
}

// Web builds the Web-server workload.
func Web(cfg WebConfig) (*Workload, error) {
	if cfg.Requests <= 0 || cfg.Files <= 0 {
		return nil, fmt.Errorf("workload: web config %+v", cfg)
	}
	rng := dist.NewRand(cfg.Seed)
	sizes := dist.LogNormalFromMeanMedian(cfg.MeanFileKB, cfg.MedianFileKB)
	meanBlocks := kbToBlocks(cfg.MeanFileKB)
	layout, fileBlocks, err := allocSizedFiles(cfg.Files, cfg.FragProb, rng,
		func() int { return kbToBlocks(sizes.Draw(rng)) })
	if err != nil {
		return nil, err
	}
	f := newFilter(layout, cacheBlocksMB(cfg.BufferCacheMB), disturbPeriod(cfg.Requests, cfg.Disturbances))
	zipf := dist.NewZipf(cfg.Files, cfg.ZipfAlpha)
	for i := 0; i < cfg.Requests; i++ {
		file := zipf.Rank(rng)
		write := dist.Bernoulli(rng, cfg.WriteFraction)
		f.access(file, 0, fileBlocks[file], write)
	}
	diskTrace, serverTrace := f.close()
	return &Workload{
		Name:          "web",
		Layout:        layout,
		Trace:         diskTrace,
		Server:        serverTrace,
		Streams:       16,
		AvgFileBlocks: meanBlocks,
	}, nil
}

// ---- Proxy server ---------------------------------------------------------------

// ProxyConfig synthesizes the AT&T Hummingbird proxy workload: 750 K
// requests over 440 K URLs averaging 8.3 KB. The proxy's disk store is
// warm (the 4.9-GB footprint predates the trace window). Per request,
// the proxy either serves the object from its store (a disk read through
// the buffer cache), revalidates it upstream (reading only its metadata
// block), or refetches changed content and stores it (a disk write) —
// the mix that yields the paper's ~43% proxy miss rate with only ~19%
// disk-level writes.
type ProxyConfig struct {
	Requests      int
	URLs          int
	ObjectSize    dist.BoundedPareto // KB
	ZipfAlpha     float64
	StoreProb     float64 // request refetches + stores the object
	RevalProb     float64 // request revalidates: metadata-block read only
	BufferCacheMB int
	// Disturbances is how many cache cold-restarts the trace window
	// contains (sets the residual re-fetch count of the hottest blocks,
	// ~80-90 in the paper's traces). Zero disables disturbance.
	Disturbances int
	FragProb     float64
	Seed         int64
}

// DefaultProxy returns the calibrated configuration at the given scale.
func DefaultProxy(scale float64) ProxyConfig {
	return ProxyConfig{
		Requests:      scaled(750000, scale),
		URLs:          scaled(440000, scale),
		ObjectSize:    dist.BoundedPareto{Lo: 1, Hi: 1024, Shape: 1.05},
		ZipfAlpha:     0.7,
		StoreProb:     0.12,
		RevalProb:     0.31,
		BufferCacheMB: scaled(384, scale),
		Disturbances:  40,
		FragProb:      0.03,
		Seed:          3,
	}
}

// Proxy builds the proxy workload over a pre-populated object store.
func Proxy(cfg ProxyConfig) (*Workload, error) {
	if cfg.Requests <= 0 || cfg.URLs <= 0 {
		return nil, fmt.Errorf("workload: proxy config %+v", cfg)
	}
	if cfg.StoreProb < 0 || cfg.RevalProb < 0 || cfg.StoreProb+cfg.RevalProb > 1 {
		return nil, fmt.Errorf("workload: proxy store/reval probabilities %v/%v", cfg.StoreProb, cfg.RevalProb)
	}
	rng := dist.NewRand(cfg.Seed)
	meanBlocks := kbToBlocks(8.3)
	layout := fslayout.NewGrouped(DefaultVolumeBlocks, DefaultGroups)
	// Warm store: every URL's object already on disk, in crawl order.
	sizeOf := make([]int, cfg.URLs)
	for u := 0; u < cfg.URLs; u++ {
		n := kbToBlocks(cfg.ObjectSize.Draw(rng))
		if _, err := layout.Alloc(n, cfg.FragProb, rng); err != nil {
			return nil, err
		}
		sizeOf[u] = n // file id == url
	}
	f := newFilter(layout, cacheBlocksMB(cfg.BufferCacheMB), disturbPeriod(cfg.Requests, cfg.Disturbances))
	zipf := dist.NewZipf(cfg.URLs, cfg.ZipfAlpha)
	for i := 0; i < cfg.Requests; i++ {
		url := zipf.Rank(rng)
		r := rng.Float64()
		switch {
		case r < cfg.StoreProb:
			// Content changed upstream: refetch and store in place.
			f.access(url, 0, sizeOf[url], true)
		case r < cfg.StoreProb+cfg.RevalProb:
			// Revalidation: consult the object's metadata block.
			f.access(url, 0, 1, false)
		default:
			// Proxy hit served from the store.
			f.access(url, 0, sizeOf[url], false)
		}
	}
	diskTrace, serverTrace := f.close()
	return &Workload{
		Name:          "proxy",
		Layout:        layout,
		Trace:         diskTrace,
		Server:        serverTrace,
		Streams:       128,
		AvgFileBlocks: meanBlocks,
	}, nil
}

// ---- File server ----------------------------------------------------------------

// FileServerConfig synthesizes the HP Labs file-server workload: 9.5 M
// requests against ~30 K mostly-large files (16 GB footprint), each
// request touching a small fraction of the file (3.1 KB average), with
// 34% request-level writes that the buffer cache merges down to ~20%
// disk-level writes.
type FileServerConfig struct {
	Requests      int
	Files         int
	MeanFileKB    float64
	MedianFileKB  float64
	MaxAccessKB   int
	ZipfAlpha     float64
	WriteFraction float64
	BufferCacheMB int
	// Disturbances is how many cache cold-restarts the trace window
	// contains (sets the residual re-fetch count of the hottest blocks,
	// ~80-90 in the paper's traces). Zero disables disturbance.
	Disturbances int
	FragProb     float64
	Seed         int64
}

// DefaultFileServer returns the calibrated configuration at the given
// scale.
func DefaultFileServer(scale float64) FileServerConfig {
	return FileServerConfig{
		Requests:      scaled(9500000, scale),
		Files:         scaled(30000, scale),
		MeanFileKB:    546, // 16 GB / 30 K files
		MedianFileKB:  96,
		MaxAccessKB:   16,
		ZipfAlpha:     0.6,
		WriteFraction: 0.34,
		BufferCacheMB: scaled(384, scale),
		Disturbances:  40,
		FragProb:      0.03,
		Seed:          4,
	}
}

// FileServer builds the file-server workload.
func FileServer(cfg FileServerConfig) (*Workload, error) {
	if cfg.Requests <= 0 || cfg.Files <= 0 || cfg.MaxAccessKB <= 0 {
		return nil, fmt.Errorf("workload: file-server config %+v", cfg)
	}
	rng := dist.NewRand(cfg.Seed)
	sizes := dist.LogNormalFromMeanMedian(cfg.MeanFileKB, cfg.MedianFileKB)
	layout, fileBlocks, err := allocSizedFiles(cfg.Files, cfg.FragProb, rng,
		func() int { return kbToBlocks(sizes.Draw(rng)) })
	if err != nil {
		return nil, err
	}
	f := newFilter(layout, cacheBlocksMB(cfg.BufferCacheMB), disturbPeriod(cfg.Requests, cfg.Disturbances))
	zipf := dist.NewZipf(cfg.Files, cfg.ZipfAlpha)
	maxAccess := kbToBlocks(float64(cfg.MaxAccessKB))
	for i := 0; i < cfg.Requests; i++ {
		file := zipf.Rank(rng)
		size := fileBlocks[file]
		// Small accesses dominate: mostly one block, occasionally a
		// short run, averaging ~3 KB as in the HP trace.
		n := 1
		if rng.Float64() < 0.15 {
			n = 2 + rng.Intn(maxAccess-1)
		}
		if n > size {
			n = size
		}
		write := dist.Bernoulli(rng, cfg.WriteFraction)
		off := 0
		if write {
			// Writes cluster on each file's head blocks (metadata,
			// appends); that temporal locality is what lets the buffer
			// cache merge 34% request-level writes into ~20% disk-level
			// writes, as the paper observes for this trace.
			if hot := min(4, size-n+1); hot > 0 {
				off = rng.Intn(hot)
			}
		} else if size > n {
			off = rng.Intn(size - n + 1)
		}
		f.access(file, off, n, write)
	}
	diskTrace, serverTrace := f.close()
	return &Workload{
		Name:          "file",
		Layout:        layout,
		Trace:         diskTrace,
		Server:        serverTrace,
		Streams:       128,
		AvgFileBlocks: 1,
	}, nil
}

// ---- shared helpers ---------------------------------------------------------------

// disturbPeriod converts a disturbance count into the access period the
// filter clears the buffer cache at.
func disturbPeriod(requests, disturbances int) int {
	if disturbances <= 0 {
		return 0
	}
	p := requests / disturbances
	if p < 1 {
		p = 1
	}
	return p
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

func cacheBlocksMB(mb int) int {
	blocks := mb << 20 / BlockSize
	if blocks < 16 {
		blocks = 16
	}
	return blocks
}
