package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"diskthru"
	"diskthru/internal/array"
	"diskthru/internal/cache"
	"diskthru/internal/fslayout"
	"diskthru/internal/geom"
	"diskthru/internal/host"
	"diskthru/internal/journal"
	"diskthru/internal/probe"
	wl "diskthru/internal/workload"
)

// Micro-drives time one layer at a time on realistic inputs: the
// per-disk request streams of web-sweep's 16 KB-stripe Segm and FOR
// cells (recorded through the telemetry layer, a pure observer),
// synthetic-writes' traces and layouts, and cell-sized journal records.
// They run after the profiled reps, on the same inputs in every
// workload's traced run, so their numbers compare across workloads.

// ioRec is one traced per-disk request.
type ioRec struct {
	pba          int64
	disk, blocks int32
	raSpan       int32 // blocks fetched beyond the request
	media        bool  // the request needed a platter operation
	cached       bool  // served or filled by the read-ahead store
}

// streamSink parses the telemetry layer's JSONL trace (probe.Record
// lines) as it is written. A stream is over a million lines, so it reads
// only the five fields it needs, by key, instead of decoding each line.
type streamSink struct {
	buf  []byte
	recs []ioRec
	err  error
}

var (
	keyDisk    = []byte(`,"disk":`)
	keyPBA     = []byte(`,"pba":`)
	keyBlocks  = []byte(`,"blocks":`)
	keyRASpan  = []byte(`,"ra_span":`)
	keyOutcome = []byte(`,"outcome":"`)
)

func (s *streamSink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	rest := s.buf
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		line := rest[:i]
		rest = rest[i+1:]
		r := ioRec{pba: intAfter(line, keyPBA)}
		disk, blocks, span := intAfter(line, keyDisk), intAfter(line, keyBlocks), intAfter(line, keyRASpan)
		if r.pba < 0 || disk < 0 || blocks < 0 || span < 0 {
			s.err = fmt.Errorf("unreadable trace line %q", line)
			continue
		}
		r.disk, r.blocks, r.raSpan = int32(disk), int32(blocks), int32(span)
		o := bytes.Index(line, keyOutcome)
		if o < 0 {
			continue
		}
		outcome := line[o+len(keyOutcome):]
		switch string(outcome[:max(bytes.IndexByte(outcome, '"'), 0)]) {
		case probe.OutcomeCacheHit, probe.OutcomeLateHit:
			r.cached = true
		case probe.OutcomeMediaRead, probe.OutcomeMediaWrite:
			r.cached, r.media = true, true
		case probe.OutcomeFlushWrite:
			r.media = true
		default: // HDC hits never reach the read-ahead store or the platters
			continue
		}
		s.recs = append(s.recs, r)
	}
	s.buf = append(s.buf[:0], rest...) // keep the partial last line
	return len(p), nil
}

// intAfter parses the non-negative integer that follows key in line, or
// returns -1 when the key is missing.
func intAfter(line, key []byte) int64 {
	i := bytes.Index(line, key)
	if i < 0 {
		return -1
	}
	var n int64
	for _, c := range line[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// recordStream replays fig7's 16 KB-stripe cell of one system with
// telemetry attached and returns every request it traced.
func recordStream(webScale float64, sys diskthru.System) ([]ioRec, error) {
	w, err := diskthru.WebWorkload(webScale)
	if err != nil {
		return nil, err
	}
	cfg := diskthru.DefaultConfig().WithSystem(sys)
	cfg.StripeKB = 16
	var sink streamSink
	cfg.Telemetry = probe.NewTelemetry(&sink, nil, 0)
	if _, err := diskthru.Run(w, cfg); err != nil {
		return nil, err
	}
	return sink.recs, sink.err
}

// replayCache drives one store per disk with a stream: a request whose
// blocks are all resident touches them, any other inserts itself plus
// the read-ahead the drive fetched. It returns the blocks requested.
func replayCache(recs []ioRec, newStore func() cache.Store) int {
	stores := map[int32]cache.Store{}
	blocks := 0
	for _, r := range recs {
		if !r.cached {
			continue
		}
		s := stores[r.disk]
		if s == nil {
			s = newStore()
			stores[r.disk] = s
		}
		end := r.pba + int64(r.blocks)
		hit := true
		for b := r.pba; b < end && hit; b++ {
			hit = s.Contains(b)
		}
		if hit {
			for b := r.pba; b < end; b++ {
				s.Touch(b)
			}
		} else {
			s.Insert(r.pba, int(r.blocks+r.raSpan))
		}
		blocks += int(r.blocks)
	}
	for _, s := range stores {
		s.Release()
	}
	return blocks
}

// replayGeom costs every platter operation of a stream, each disk's
// head starting where its previous operation left it.
func replayGeom(m *geom.Mech, recs []ioRec) (ops int, busy float64) {
	cyl := map[int32]int{}
	for _, r := range recs {
		if !r.media {
			continue
		}
		a := m.MediaOp(cyl[r.disk], r.pba, int(r.blocks+r.raSpan), busy)
		busy += a.Total()
		cyl[r.disk] = m.Cylinder(r.pba)
		ops++
	}
	return ops, busy
}

// passes times fn until it has run at least three times and for at
// least a quarter of a second (one pass in a tiny run), and returns the
// median pass.
func (b *bench) passes(fn func()) time.Duration {
	var d []float64
	var total time.Duration
	for len(d) < 3 || total < 250*time.Millisecond {
		start := time.Now()
		fn()
		el := time.Since(start)
		d, total = append(d, float64(el)), total+el
		if b.cfg.tiny {
			break
		}
	}
	return time.Duration(quantile(d, 0.5))
}

// microDrives runs every micro-drive, each recorded as a span.
func (b *bench) microDrives(tr *tracer, traced []*repResult) (map[string]stat, error) {
	m := map[string]stat{}
	web, _ := lookupWorkload("web-sweep")
	syn, _ := lookupWorkload("synthetic-writes")
	webOpts, synOpts := web.options(b.cfg.tiny, b.cfg.seed, 0), syn.options(b.cfg.tiny, b.cfg.seed, 0)
	span := func(name string, start time.Time) { tr.add(0, "micro."+name, start, time.Now(), nil) }

	start := time.Now()
	segm, err := recordStream(webOpts.WebScale, diskthru.Segm)
	if err != nil {
		return nil, err
	}
	forr, err := recordStream(webOpts.WebScale, diskthru.FOR)
	if err != nil {
		return nil, err
	}
	span("record", start)

	cfg := diskthru.DefaultConfig()
	g := geom.Ultrastar36Z15()
	segBlocks := cfg.SegmentKB << 10 / g.BlockSize
	forBlocks := (cfg.CacheKB<<10 - fslayout.NewBitmap(g.Blocks()).SizeBytes()) / g.BlockSize
	var blocks int
	start = time.Now()
	d := b.passes(func() {
		blocks = replayCache(segm, func() cache.Store { return cache.NewSegmentStore(cfg.MaxSegments, segBlocks) })
	})
	m["cache.segment_ns_per_block"] = summarize("ns", float64(d)/float64(max(blocks, 1)))
	span("cache.segment", start)

	start = time.Now()
	d = b.passes(func() {
		blocks = replayCache(forr, func() cache.Store { return cache.NewBlockStore(forBlocks, cache.EvictMRU) })
	})
	m["cache.block_ns_per_block"] = summarize("ns", float64(d)/float64(max(blocks, 1)))
	span("cache.block", start)

	start = time.Now()
	mech := g.Compile()
	both := append(segm[:len(segm):len(segm)], forr...)
	var ops int
	d = b.passes(func() { ops, _ = replayGeom(mech, both) })
	m["geom.mediaop_ns"] = summarize("ns", float64(d)/float64(max(ops, 1)))
	span("geom", start)

	// HDC planning over fig6's seven traces (2 MB pinned per controller,
	// 128 KB stripes), built through the workload package directly.
	start = time.Now()
	striper := array.NewStriper(cfg.Disks, cfg.StripeKB<<10/g.BlockSize)
	writes := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	if b.cfg.tiny {
		writes = writes[:1] // each build lays out 65,536 files
	}
	var plans []float64
	for _, wf := range writes {
		sc := wl.DefaultSynthetic(16)
		sc.Requests, sc.WriteFraction, sc.Seed = synOpts.SynRequests, wf, 1+synOpts.Seed
		w, err := wl.Synthetic(sc)
		if err != nil {
			return nil, err
		}
		d := b.passes(func() { host.PlanHDC(w.Trace, w.Layout, striper, 2048<<10/g.BlockSize) })
		plans = append(plans, ms(d))
	}
	m["host.plan_hdc_ms"] = summarize("ms", plans...)
	span("plan_hdc", start)

	start = time.Now()
	us, err := b.journalAppends(traced)
	if err != nil {
		return nil, err
	}
	m["journal.append_us"] = summarize("us", us)
	span("journal", start)
	return m, nil
}

// journalAppends times fsync'd journal appends of a cell-sized record,
// the median payload the traced reps produced, and returns the median
// append in microseconds.
func (b *bench) journalAppends(traced []*repResult) (float64, error) {
	var sizes []float64
	for _, r := range traced {
		for _, p := range r.payloads {
			sizes = append(sizes, float64(len(p)))
		}
	}
	dir, err := os.MkdirTemp(filepath.Join(b.cfg.work, "tmp"), "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	w, _, err := journal.Open(filepath.Join(dir, "micro.journal"), nil)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	payload := bytes.Repeat([]byte{'x'}, int(quantile(sizes, 0.5)))
	n := 100
	if b.cfg.tiny {
		n = 5
	}
	var appends []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := w.Append(payload); err != nil {
			return 0, err
		}
		appends = append(appends, float64(time.Since(start))/float64(time.Microsecond))
	}
	return quantile(appends, 0.5), nil
}
