package experiments

import (
	"fmt"
	"math"

	"diskthru"
	"diskthru/internal/dist"
	"diskthru/internal/fslayout"
)

// baseConfig is the Table 1 setup shared by the synthetic experiments.
func baseConfig() diskthru.Config {
	cfg := diskthru.DefaultConfig()
	cfg.Streams = 128
	return cfg
}

// Fig1 reproduces Figure 1: average sequential read length as a function
// of the fragmentation degree, for 2/4/8/16/32-block files. Measured
// from real allocations; the closed form n/(1+(n-1)p) is the reference.
func Fig1(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	sizes := []int{32, 16, 8, 4, 2}
	t := &Table{
		ID:      "fig1",
		Title:   "Average sequential read vs fragmentation degree",
		XLabel:  "frag%",
		Columns: []string{"32 blks", "16 blks", "8 blks", "4 blks", "2 blks"},
	}
	const filesPerPoint = 3000
	var frags []float64
	for frag := 0.0; frag <= 0.20+1e-9; frag += 0.025 {
		frags = append(frags, frag)
	}
	r := newRunner(o)
	cells := make([][]*[]float64, len(frags))
	for fi, frag := range frags {
		cells[fi] = make([]*[]float64, len(sizes))
		for i, size := range sizes {
			cells[fi][i] = r.values(func() ([]float64, error) {
				l := fslayout.New(int64(filesPerPoint*size)*6 + 64)
				rng := dist.NewRand(1000 + o.Seed + int64(size))
				for f := 0; f < filesPerPoint; f++ {
					if _, err := l.Alloc(size, frag, rng); err != nil {
						return nil, err
					}
				}
				return []float64{l.AvgSequentialRun()}, nil
			})
		}
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for fi, frag := range frags {
		row := make([]float64, len(sizes))
		for i, c := range cells[fi] {
			row[i] = (*c)[0]
		}
		t.AddRow(fmt.Sprintf("%.1f", frag*100), row...)
	}
	t.Note("closed form: n/(1+(n-1)p); 32 blks @ 5%% -> %.1f (paper: ~12)",
		fslayout.ExpectedRun(32, 0.05))
	return t, nil
}

// synWorkload builds one synthetic workload for the sweeps.
func synWorkload(o Options, fileKB int, alpha, writes float64) (*diskthru.Workload, error) {
	return diskthru.SyntheticWorkload(diskthru.SyntheticOptions{
		Requests:      o.SynRequests,
		FileKB:        fileKB,
		ZipfAlpha:     alpha,
		WriteFraction: writes,
		Seed:          1 + o.Seed,
	})
}

// Fig3 reproduces Figure 3: normalized I/O time vs average file size for
// Segm, Block, No-RA and FOR at 128 simultaneous streams.
func Fig3(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3",
		Title:   "Normalized I/O time vs average file size (streams=128)",
		XLabel:  "fileKB",
		Columns: []string{"Segm", "Block", "No-RA", "FOR", "Segm secs"},
	}
	cfg := baseConfig()
	kbs := []int{4, 8, 16, 32, 48, 64, 96, 128}
	r := newRunner(o)
	rows := make([][]*diskthru.Result, len(kbs))
	for i, kb := range kbs {
		kb := kb
		wr := newWorkload(o, func() (*diskthru.Workload, error) { return synWorkload(o, kb, 0.4, 0) })
		rows[i] = r.compare(wr, cfg,
			[]diskthru.System{diskthru.Segm, diskthru.Block, diskthru.NoRA, diskthru.FOR})
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, kb := range kbs {
		res := rows[i]
		base := res[0].IOTime
		t.AddRow(fmt.Sprintf("%d", kb),
			1.0, res[1].IOTime/base, res[2].IOTime/base, res[3].IOTime/base, base)
	}
	t.Note("paper: FOR cuts I/O time ~40%% at 16 KB; No-RA beats blind read-ahead below ~48 KB and loses badly above")
	return t, nil
}

// Fig4 reproduces Figure 4: normalized I/O time vs number of
// simultaneous streams for 16-KB files.
func Fig4(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig4",
		Title:   "Normalized I/O time vs simultaneous streams (16-KB files)",
		XLabel:  "streams",
		Columns: []string{"Segm", "Block", "FOR", "Segm secs"},
	}
	wr := newWorkload(o, func() (*diskthru.Workload, error) { return synWorkload(o, 16, 0.4, 0) })
	streamCounts := []int{64, 128, 256, 512, 768, 1024}
	r := newRunner(o)
	rows := make([][]*diskthru.Result, len(streamCounts))
	for i, streams := range streamCounts {
		cfg := baseConfig()
		cfg.Streams = streams
		rows[i] = r.compare(wr, cfg,
			[]diskthru.System{diskthru.Segm, diskthru.Block, diskthru.FOR})
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, streams := range streamCounts {
		res := rows[i]
		base := res[0].IOTime
		t.AddRow(fmt.Sprintf("%d", streams),
			1.0, res[1].IOTime/base, res[2].IOTime/base, base)
	}
	t.Note("paper: FOR gains 39%% at 64 streams rising to 59%% at 1024; Block matches Segm below ~256 streams")
	return t, nil
}

// Fig5 reproduces Figure 5: normalized I/O time and HDC hit rate vs the
// Zipf coefficient, with 2-MB HDC regions and no writes.
func Fig5(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig5",
		Title:   "Normalized I/O time vs access-frequency skew (HDC=2MB, writes=0)",
		XLabel:  "alpha",
		Columns: []string{"Segm", "Segm+HDC", "FOR", "FOR+HDC", "HDC hit%"},
	}
	alphas := []float64{0.001, 0.2, 0.4, 0.6, 0.8, 1.0}
	r := newRunner(o)
	type fig5Row struct{ segm, segmHDC, forr, forHDC *diskthru.Result }
	rows := make([]fig5Row, len(alphas))
	for i, alpha := range alphas {
		alpha := alpha
		wr := newWorkload(o, func() (*diskthru.Workload, error) { return synWorkload(o, 16, alpha, 0) })
		cfg := baseConfig()
		rows[i] = fig5Row{
			segm:    r.run(wr, cfg),
			segmHDC: r.run(wr, cfg.WithHDC(2048)),
			forr:    r.run(wr, cfg.WithSystem(diskthru.FOR)),
			forHDC:  r.run(wr, cfg.WithSystem(diskthru.FOR).WithHDC(2048)),
		}
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, alpha := range alphas {
		row := rows[i]
		base := row.segm.IOTime
		t.AddRow(trimAlpha(alpha),
			1.0, row.segmHDC.IOTime/base, row.forr.IOTime/base, row.forHDC.IOTime/base,
			row.segmHDC.HDCHitRate*100)
	}
	t.Note("paper: HDC gains ~10%% for alpha<=0.6 rising to 28%% (Segm) / 31%% (FOR) at alpha=1; hit rate reaches 56%%")
	return t, nil
}

func trimAlpha(a float64) string {
	if a < 0.01 {
		return "0"
	}
	return fmt.Sprintf("%.1f", a)
}

// Fig6 reproduces Figure 6: normalized I/O time vs the percentage of
// writes (HDC=2MB, alpha=0.4).
func Fig6(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig6",
		Title:   "Normalized I/O time vs write fraction (HDC=2MB, alpha=0.4)",
		XLabel:  "writes",
		Columns: []string{"Segm", "Segm+HDC", "FOR", "FOR+HDC"},
	}
	wfs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	r := newRunner(o)
	type fig6Row struct{ segm, segmHDC, forr, forHDC *diskthru.Result }
	rows := make([]fig6Row, len(wfs))
	for i, wf := range wfs {
		wf := wf
		wr := newWorkload(o, func() (*diskthru.Workload, error) { return synWorkload(o, 16, 0.4, wf) })
		cfg := baseConfig()
		rows[i] = fig6Row{
			segm:    r.run(wr, cfg),
			segmHDC: r.run(wr, cfg.WithHDC(2048)),
			forr:    r.run(wr, cfg.WithSystem(diskthru.FOR)),
			forHDC:  r.run(wr, cfg.WithSystem(diskthru.FOR).WithHDC(2048)),
		}
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, wf := range wfs {
		row := rows[i]
		base := row.segm.IOTime
		t.AddRow(fmt.Sprintf("%.1f", wf),
			1.0, row.segmHDC.IOTime/base, row.forr.IOTime/base, row.forHDC.IOTime/base)
	}
	t.Note("paper: FOR improvement drops from 39%% to 19%% as writes grow 0->60%%; FOR+HDC from 46%% to 28%%")
	return t, nil
}

// Table1 prints the simulated configuration against the paper's Table 1.
func Table1(o Options) (*Table, error) {
	cfg := diskthru.DefaultConfig()
	t := &Table{
		ID:      "table1",
		Title:   "Main parameters and their default values",
		XLabel:  "parameter",
		Columns: []string{"value"},
	}
	t.AddRow("disks", float64(cfg.Disks))
	t.AddRow("disk size (GB)", 18)
	t.AddRow("avg seek (ms)", 3.4)
	t.AddRow("avg rot latency (ms)", 2.0)
	t.AddRow("controller cache (KB)", float64(cfg.CacheKB))
	t.AddRow("block size (B)", 4096)
	t.AddRow("segment (KB)", float64(cfg.SegmentKB))
	t.AddRow("max segments", float64(cfg.MaxSegments))
	t.AddRow("bitmap (KB)", math.Round(float64(fslayout.NewBitmap(4718560).SizeBytes())/1024))
	t.AddRow("coalesce prob (%)", cfg.CoalesceProb*100)
	t.Note("paper Table 1: 8 disks, 18 GB, 3.4 ms seek, 2.0 ms latency, 54 MB/s, Ultra160, 4 MB cache, 4 KB blocks, 128/256/512 KB segments, 27/13/6 segments, 546 KB bitmap")
	return t, nil
}
