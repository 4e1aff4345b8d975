package fslayout

import (
	"slices"
	"testing"
	"testing/quick"

	"diskthru/internal/array"
	"diskthru/internal/dist"
)

func TestGroupedSpreadsFiles(t *testing.T) {
	l := NewGrouped(1000, 4) // groups at 0, 250, 500, 750
	ids := make([]int, 4)
	for i := range ids {
		id, err := l.Alloc(10, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if l.Groups() != 4 {
		t.Fatalf("Groups = %d", l.Groups())
	}
	wantStarts := []int64{0, 250, 500, 750}
	for i, id := range ids {
		if got := l.FileBlocks(id)[0]; got != wantStarts[i] {
			t.Fatalf("file %d starts at %d, want %d", i, got, wantStarts[i])
		}
	}
	// The fifth file wraps around to group 0, right after the first.
	id, err := l.Alloc(10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.FileBlocks(id)[0]; got != 10 {
		t.Fatalf("wrapped file starts at %d, want 10", got)
	}
}

func TestGroupedSkipsFullGroups(t *testing.T) {
	l := NewGrouped(100, 4) // 25 blocks per group
	// Fill group 0 almost entirely.
	if _, err := l.Alloc(24, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Round-robin continues at groups 1..3; none of these skip.
	var starts []int64
	for i := 0; i < 3; i++ {
		id, err := l.Alloc(20, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, l.FileBlocks(id)[0])
	}
	if starts[0] != 25 || starts[1] != 50 || starts[2] != 75 {
		t.Fatalf("starts = %v", starts)
	}
	// A fourth 20-block file fits nowhere (free: 1,5,5,5)...
	if _, err := l.Alloc(20, 0, nil); err != ErrVolumeFull {
		t.Fatalf("err = %v, want ErrVolumeFull", err)
	}
	// ...but a 5-block file still lands in the next group with room,
	// having skipped the nearly-full group 0.
	id, err := l.Alloc(5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.FileBlocks(id)[0]; got != 45 {
		t.Fatalf("skip landed at %d, want 45 (group 1 remainder)", got)
	}
}

func TestGroupedVolumeFullWhenNoGroupFits(t *testing.T) {
	l := NewGrouped(40, 4) // 10 blocks per group
	for i := 0; i < 4; i++ {
		if _, err := l.Alloc(8, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Alloc(5, 0, nil); err != ErrVolumeFull {
		t.Fatalf("err = %v, want ErrVolumeFull", err)
	}
	// A 2-block file still fits in any group's remainder.
	if _, err := l.Alloc(2, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupedOwnersAcrossPages(t *testing.T) {
	// Groups far apart each keep their own owner table; the blocks
	// between them have no owner.
	l := NewGrouped(1<<24, 8)
	for i := 0; i < 16; i++ {
		if _, err := l.Alloc(64, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if l.AllocatedBlocks() != 16*64 {
		t.Fatalf("AllocatedBlocks = %d", l.AllocatedBlocks())
	}
	for id := 0; id < 16; id++ {
		for off, b := range l.FileBlocks(id) {
			f, o, ok := l.Owner(b)
			if !ok || f != id || o != off {
				t.Fatalf("Owner(%d) = (%d,%d,%v), want (%d,%d,true)", b, f, o, ok, id, off)
			}
		}
	}
	// Blocks past every group's cursor have no owner.
	if _, _, ok := l.Owner(1<<24 - 1); ok {
		t.Fatal("owner past the last group's cursor")
	}
}

func TestGroupedBadConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewGrouped(0, 1) },
		func() { NewGrouped(100, 0) },
		func() { NewGrouped(10, 20) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

// Property: allocations never overlap, regardless of grouping and
// fragmentation.
func TestPropertyGroupedNoOverlap(t *testing.T) {
	f := func(groupsRaw, filesRaw uint8, seed int64) bool {
		groups := 1 + int(groupsRaw)%8
		files := 1 + int(filesRaw)%30
		l := NewGrouped(1<<16, groups)
		rng := dist.NewRand(seed)
		seen := map[int64]bool{}
		for i := 0; i < files; i++ {
			id, err := l.Alloc(1+rng.Intn(16), 0.2, rng)
			if err != nil {
				return true // volume filled, fine
			}
			for _, b := range l.FileBlocks(id) {
				if seen[b] {
					return false
				}
				seen[b] = true
			}
		}
		return int64(len(seen)) == l.AllocatedBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: bitmaps built from grouped layouts agree with Owner at every
// allocated block boundary.
func TestPropertyGroupedBitmapConsistency(t *testing.T) {
	f := func(disksRaw, unitRaw uint8, seed int64) bool {
		disks := 1 + int(disksRaw)%8
		unit := 1 + int(unitRaw)%16
		l := NewGrouped(1<<16, 8)
		rng := dist.NewRand(seed)
		for i := 0; i < 20; i++ {
			if _, err := l.Alloc(1+rng.Intn(12), 0.1, rng); err != nil {
				break
			}
		}
		s := array.NewStriper(disks, unit)
		maps := BuildBitmaps(l, s)
		for id := 0; id < l.NumFiles(); id++ {
			for offset, logical := range l.FileBlocks(id) {
				d, p := s.Locate(logical)
				want := false
				if p > 0 {
					pf, po, ok := l.Owner(s.Logical(d, p-1))
					want = ok && pf == id && po == offset-1
				}
				if maps[d].Get(p) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestNewSingleGroupBackCompat(t *testing.T) {
	l := New(100)
	if l.Groups() != 1 {
		t.Fatalf("New gives %d groups", l.Groups())
	}
	a, _ := l.Alloc(3, 0, nil)
	b, _ := l.Alloc(3, 0, nil)
	if l.FileBlocks(b)[0] != l.FileBlocks(a)[2]+1 {
		t.Fatal("single-group allocation not contiguous")
	}
}

// TestOwnerExhaustive checks Owner for every block of a fragmented
// grouped layout against a reference built from FileBlocks: owned
// blocks, holes, blocks past each group's cursor, and the remainder the
// last group absorbs. The layout is checked twice, once with room left
// in every group and once filled to the last block.
func TestOwnerExhaustive(t *testing.T) {
	const volume, groups = 20011, 7 // 2858 blocks per group, 5 left over
	l := NewGrouped(volume, groups)
	rng := dist.NewRand(11)
	check := func(phase string) (owned, unowned int) {
		type ref struct{ file, offset int }
		want := make([]ref, volume)
		for b := range want {
			want[b] = ref{-1, -1}
		}
		for id := 0; id < l.NumFiles(); id++ {
			for off, b := range l.FileBlocks(id) {
				want[b] = ref{id, off}
			}
		}
		for b := int64(-1); b <= volume; b++ {
			f, off, ok := l.Owner(b)
			w := ref{-1, -1}
			if b >= 0 && b < volume {
				w = want[b]
			}
			if ok != (w.file >= 0) || ok && (f != w.file || off != w.offset) {
				t.Fatalf("%s: Owner(%d) = (%d,%d,%v), want %+v", phase, b, f, off, ok, w)
			}
			if ok {
				owned++
			} else {
				unowned++
			}
		}
		return owned, unowned
	}

	for {
		if _, err := l.Alloc(1+rng.Intn(24), 0.2, rng); err != nil {
			break
		}
	}
	owned, unowned := check("fragmented")
	if owned != int(l.AllocatedBlocks()) || unowned < groups {
		t.Fatalf("fragmented: %d owned of %d allocated, %d unowned", owned, l.AllocatedBlocks(), unowned)
	}

	// Single unfragmented blocks fill every group to its end, the last
	// group's remainder included.
	for {
		if _, err := l.Alloc(1, 0, nil); err != nil {
			break
		}
	}
	check("full")
	if _, _, ok := l.Owner(volume - 1); !ok {
		t.Fatal("the last group's remainder was never allocated")
	}
}

// TestReserveSizesTablesOnce: after Reserve, allocating the reserved
// unfragmented files grows no table, and the layout is the one an
// unreserved allocator builds.
func TestReserveSizesTablesOnce(t *testing.T) {
	const files, blocks = 1000, 4
	plain := NewGrouped(1<<20, 16)
	for i := 0; i < 2*files; i++ {
		if _, err := plain.Alloc(blocks, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	l := NewGrouped(1<<20, 16)
	// AllocsPerRun runs the loop twice: a warm-up, then the measured run.
	l.Reserve(2*files, blocks)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < files; i++ {
			if _, err := l.Alloc(blocks, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("allocating %d reserved files allocated %.0f times; want 0", files, allocs)
	}
	for id := 0; id < 2*files; id++ {
		if got, want := l.FileBlocks(id), plain.FileBlocks(id); !slices.Equal(got, want) {
			t.Fatalf("file %d at %v, unreserved at %v", id, got, want)
		}
	}
}
