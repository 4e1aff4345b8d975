package fslayout

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"diskthru/internal/array"
	"diskthru/internal/dist"
)

func TestAllocContiguousWithoutFragmentation(t *testing.T) {
	l := New(1000)
	id, err := l.Alloc(10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks := l.FileBlocks(id)
	if len(blocks) != 10 || l.FileSize(id) != 10 {
		t.Fatalf("file has %d blocks", len(blocks))
	}
	for i, b := range blocks {
		if b != int64(i) {
			t.Fatalf("block %d = %d, want %d", i, b, i)
		}
	}
	if l.UsedBlocks() != 10 || l.NumFiles() != 1 {
		t.Fatalf("used=%d files=%d", l.UsedBlocks(), l.NumFiles())
	}
}

func TestAllocSecondFileFollowsFirst(t *testing.T) {
	l := New(1000)
	a, _ := l.Alloc(4, 0, nil)
	b, _ := l.Alloc(4, 0, nil)
	if l.FileBlocks(b)[0] != l.FileBlocks(a)[3]+1 {
		t.Fatal("files not packed back to back")
	}
}

func TestOwnerMapsBlocks(t *testing.T) {
	l := New(1000)
	id, _ := l.Alloc(5, 0, nil)
	for i, b := range l.FileBlocks(id) {
		f, off, ok := l.Owner(b)
		if !ok || f != id || off != i {
			t.Fatalf("Owner(%d) = (%d,%d,%v)", b, f, off, ok)
		}
	}
	if _, _, ok := l.Owner(999); ok {
		t.Fatal("unallocated block has an owner")
	}
	if _, _, ok := l.Owner(-1); ok {
		t.Fatal("negative block has an owner")
	}
}

func TestFragmentationCreatesHoles(t *testing.T) {
	l := New(100000)
	rng := dist.NewRand(1)
	id, err := l.Alloc(1000, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	blocks := l.FileBlocks(id)
	breaks := 0
	for i := 1; i < len(blocks); i++ {
		if blocks[i] != blocks[i-1]+1 {
			breaks++
		}
		if blocks[i] <= blocks[i-1] {
			t.Fatal("allocation not monotone")
		}
	}
	if breaks < 300 || breaks > 700 {
		t.Fatalf("%d breaks for p=0.5 over 999 junctions", breaks)
	}
	// Holes must have no owner.
	for b := blocks[0]; b < blocks[len(blocks)-1]; b++ {
		if f, _, ok := l.Owner(b); ok && f != id {
			t.Fatalf("foreign owner inside file extent at %d", b)
		}
	}
}

func TestVolumeFull(t *testing.T) {
	l := New(10)
	if _, err := l.Alloc(100, 0, nil); err != ErrVolumeFull {
		t.Fatalf("err = %v, want ErrVolumeFull", err)
	}
	if _, err := l.Alloc(0, 0, nil); err == nil {
		t.Fatal("zero-block alloc succeeded")
	}
}

func TestExpectedRunPaperExamples(t *testing.T) {
	// Paper: 5% fragmentation cuts 32-block files to ~12 sequential blocks
	// and 8-block files to ~6.
	if got := ExpectedRun(32, 0.05); math.Abs(got-12.55) > 0.1 {
		t.Fatalf("ExpectedRun(32, .05) = %v, want ~12.5", got)
	}
	if got := ExpectedRun(8, 0.05); math.Abs(got-5.93) > 0.1 {
		t.Fatalf("ExpectedRun(8, .05) = %v, want ~5.9", got)
	}
	if got := ExpectedRun(16, 0); got != 16 {
		t.Fatalf("ExpectedRun(16, 0) = %v", got)
	}
	if got := ExpectedRun(0, 0.3); got != 0 {
		t.Fatalf("ExpectedRun(0, .3) = %v", got)
	}
}

func TestAvgSequentialRunMatchesAnalytic(t *testing.T) {
	for _, tc := range []struct {
		size int
		frag float64
	}{
		{32, 0.05}, {8, 0.05}, {16, 0.10}, {4, 0.20}, {32, 0},
	} {
		l := New(1 << 22)
		rng := dist.NewRand(42)
		for i := 0; i < 2000; i++ {
			if _, err := l.Alloc(tc.size, tc.frag, rng); err != nil {
				t.Fatal(err)
			}
		}
		got := l.AvgSequentialRun()
		want := ExpectedRun(tc.size, tc.frag)
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("size=%d frag=%v: avg run %v, analytic %v", tc.size, tc.frag, got, want)
		}
	}
}

func TestAvgSequentialRunEmptyLayout(t *testing.T) {
	if got := New(10).AvgSequentialRun(); got != 0 {
		t.Fatalf("empty layout run = %v", got)
	}
}

// ---- Bitmap ----------------------------------------------------------------

func TestBitmapSetGet(t *testing.T) {
	b := NewBitmap(200)
	if b.Get(5) {
		t.Fatal("fresh bitmap has a set bit")
	}
	b.Set(5)
	b.Set(63)
	b.Set(64)
	b.Set(199)
	for _, i := range []int64{5, 63, 64, 199} {
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(-1) || b.Get(200) || b.Get(6) {
		t.Fatal("unexpected set bit")
	}
	if b.Len() != 200 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestBitmapSetOutOfRangePanics(t *testing.T) {
	b := NewBitmap(10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Set(10)
}

func TestBitmapSizeBytesMatchesPaper(t *testing.T) {
	// 18 GB disk, 4 KB blocks: 4 718 560 blocks -> ~576 KB of bitmap;
	// the paper's Table 1 quotes 546 KB for the same ratio (1 bit per
	// 4 KB is 0.003% of capacity).
	b := NewBitmap(4718560)
	kb := float64(b.SizeBytes()) / 1024
	if kb < 500 || kb > 620 {
		t.Fatalf("bitmap = %.0f KB, want ~546-576 KB", kb)
	}
	ratio := float64(b.SizeBytes()) / (4718560.0 * 4096.0)
	if ratio > 0.0001 {
		t.Fatalf("bitmap overhead ratio = %v, want ~0.00003", ratio)
	}
}

func TestBitmapRun(t *testing.T) {
	b := NewBitmap(100)
	// File occupying blocks 10..14: bits 11..14 set (continuations).
	for i := int64(11); i <= 14; i++ {
		b.Set(i)
	}
	if got := b.Run(10, 32); got != 5 {
		t.Fatalf("Run(10) = %d, want 5", got)
	}
	if got := b.Run(12, 32); got != 3 {
		t.Fatalf("Run(12) = %d, want 3", got)
	}
	if got := b.Run(10, 3); got != 3 {
		t.Fatalf("Run capped = %d, want 3", got)
	}
	if got := b.Run(20, 32); got != 1 {
		t.Fatalf("Run over empty region = %d, want 1", got)
	}
	if got := b.Run(99, 32); got != 1 {
		t.Fatalf("Run at volume end = %d, want 1", got)
	}
	if got := b.Run(10, 0); got != 0 {
		t.Fatalf("Run with max 0 = %d", got)
	}
}

func TestBuildBitmapsSingleDisk(t *testing.T) {
	l := New(1000)
	a, _ := l.Alloc(4, 0, nil) // blocks 0..3
	b, _ := l.Alloc(3, 0, nil) // blocks 4..6
	s := array.NewStriper(1, 32)
	maps := BuildBitmaps(l, s)
	if len(maps) != 1 {
		t.Fatalf("%d bitmaps", len(maps))
	}
	bm := maps[0]
	// Continuations: 1,2,3 (file a) and 5,6 (file b); block 4 starts b.
	wantSet := map[int64]bool{1: true, 2: true, 3: true, 5: true, 6: true}
	for i := int64(0); i < 10; i++ {
		if bm.Get(i) != wantSet[i] {
			t.Errorf("bit %d = %v, want %v", i, bm.Get(i), wantSet[i])
		}
	}
	_ = a
	_ = b
}

func TestBuildBitmapsStripingBreaksRuns(t *testing.T) {
	// One 8-block file striped over 2 disks in 2-block units: physical
	// neighbors on each disk alternate between same-file continuations
	// (within a unit) and unit-boundary jumps which remain continuations
	// only if the logical predecessor lines up.
	l := New(1000)
	l.Alloc(8, 0, nil) // logical 0..7
	s := array.NewStriper(2, 2)
	maps := BuildBitmaps(l, s)
	// Disk 0 physical: pba0=L0, pba1=L1, pba2=L4, pba3=L5.
	// Bits: pba1 (L1 follows L0) set; pba2 (L4 after L1? no: L4's
	// predecessor in file is L3 which is on disk 1) unset; pba3 set.
	want0 := []bool{false, true, false, true}
	for i, w := range want0 {
		if maps[0].Get(int64(i)) != w {
			t.Errorf("disk0 bit %d = %v, want %v", i, maps[0].Get(int64(i)), w)
		}
	}
	// Disk 1 physical: pba0=L2, pba1=L3, pba2=L6, pba3=L7.
	want1 := []bool{false, true, false, true}
	for i, w := range want1 {
		if maps[1].Get(int64(i)) != w {
			t.Errorf("disk1 bit %d = %v, want %v", i, maps[1].Get(int64(i)), w)
		}
	}
}

func TestBuildBitmapsFragmentationClearsBits(t *testing.T) {
	l := New(1 << 20)
	rng := dist.NewRand(3)
	for i := 0; i < 500; i++ {
		l.Alloc(16, 0.3, rng)
	}
	s := array.NewStriper(1, 1<<30/4096)
	bm := BuildBitmaps(l, s)[0]
	set := 0
	for i := int64(0); i < l.UsedBlocks(); i++ {
		if bm.Get(i) {
			set++
		}
	}
	// With p=0.3 roughly 70% of the 15 junctions per file survive.
	total := 500 * 15
	frac := float64(set) / float64(total)
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("continuation fraction = %v, want ~0.7", frac)
	}
}

// Property: a bitmap bit is set only where the physical predecessor holds
// the same file's previous block — cross-checked via Owner on random
// layouts and stripers.
func TestPropertyBitmapConsistency(t *testing.T) {
	f := func(disksRaw, unitRaw, filesRaw uint8, seed int64) bool {
		disks := 1 + int(disksRaw)%8
		unit := 1 + int(unitRaw)%16
		files := 1 + int(filesRaw)%40
		l := New(1 << 16)
		rng := dist.NewRand(seed)
		for i := 0; i < files; i++ {
			if _, err := l.Alloc(1+rng.Intn(20), 0.1, rng); err != nil {
				return true // volume filled; nothing to check
			}
		}
		s := array.NewStriper(disks, unit)
		maps := BuildBitmaps(l, s)
		for d := 0; d < disks; d++ {
			n := maps[d].Len()
			for p := int64(0); p < n && p < 2000; p++ {
				want := false
				if p > 0 {
					cur, curOK := s.Logical(d, p), true
					prev := s.Logical(d, p-1)
					if curOK {
						cf, co, ok1 := l.Owner(cur)
						pf, po, ok2 := l.Owner(prev)
						want = ok1 && ok2 && cf == pf && po == co-1
					}
				}
				if maps[d].Get(p) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapRunMatchesGet checks the word-wise Run against a per-bit
// Get count, on bitmaps spread over several pages and ending mid-word:
// random long and short runs, runs that stop at the last bit of each
// word or the first bit of each page, and one long run.
func TestBitmapRunMatchesGet(t *testing.T) {
	const n = 3<<pageShift + 77
	rng := rand.New(rand.NewSource(5))
	random := NewBitmap(n)
	for i := int64(1); i < n; {
		ones := rng.Intn(300)
		if rng.Intn(4) == 0 {
			ones += 5000 // a run across a whole page
		}
		for ; ones > 0 && i < n; ones-- {
			random.Set(i)
			i++
		}
		i += int64(1 + rng.Intn(3))
	}
	walls, full := NewBitmap(n), NewBitmap(n)
	for i := int64(1); i < n; i++ {
		if i%64 != 63 && i%(1<<pageShift) != 0 {
			walls.Set(i)
		}
		full.Set(i)
	}

	for _, bm := range []struct {
		name string
		b    *Bitmap
	}{{"random", random}, {"walls", walls}, {"full", full}} {
		name, b := bm.name, bm.b
		perBit := func(pba int64, max int) int {
			if max <= 0 {
				return 0
			}
			k := 1
			for k < max && b.Get(pba+int64(k)) {
				k++
			}
			return k
		}
		cases := [][2]int64{
			{0, 1 << 20}, {n - 1, 10}, {n - 5, 10}, {n, 10}, {n + 3, 10}, {-1, 70}, {-2, 70},
			{62, 200}, {63, 200}, {64, 200}, {1<<pageShift - 1, 1000}, {1 << pageShift, 1000},
		}
		for k := 0; k < 3000; k++ {
			cases = append(cases, [2]int64{rng.Int63n(n+4) - 2, int64(rng.Intn(600))})
		}
		for _, c := range cases {
			if got, want := b.Run(c[0], int(c[1])), perBit(c[0], int(c[1])); got != want {
				t.Fatalf("%s: Run(%d, %d) = %d, want %d", name, c[0], c[1], got, want)
			}
		}
	}
	if got := full.Run(0, 1<<30); got != n {
		t.Fatalf("Run over a full bitmap = %d, want %d", got, n)
	}
}

// Property: every bit of every disk matches the Owner-based definition,
// on fragmented multi-group layouts whose data spans many bitmap pages.
func TestPropertyBitmapEveryBit(t *testing.T) {
	f := func(disksRaw, unitRaw, groupsRaw uint8, seed int64) bool {
		disks := 1 + int(disksRaw)%6
		unit := 1 + int(unitRaw)%40
		groups := 1 + int(groupsRaw)%6
		l := NewGrouped(1<<17, groups)
		rng := dist.NewRand(seed)
		for l.AllocatedBlocks() < 1<<16 {
			if _, err := l.Alloc(1+rng.Intn(64), 0.1, rng); err != nil {
				break
			}
		}
		s := array.NewStriper(disks, unit)
		maps := BuildBitmaps(l, s)
		for d := 0; d < disks; d++ {
			for p := int64(0); p < maps[d].Len(); p++ {
				want := false
				if p > 0 {
					cf, co, ok1 := l.Owner(s.Logical(d, p))
					pf, po, ok2 := l.Owner(s.Logical(d, p-1))
					want = ok1 && ok2 && cf == pf && po == co-1
				}
				if maps[d].Get(p) != want {
					t.Logf("disks=%d unit=%d groups=%d: disk %d bit %d = %v, want %v",
						disks, unit, groups, d, p, !want, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
