package fslayout_test

import (
	"runtime"
	"testing"

	"diskthru/internal/array"
	"diskthru/internal/fslayout"
	"diskthru/internal/workload"
)

// TestBuildBitmapsMemoryFollowsData: the bitmaps for a handful of files
// on a full-size server volume cost memory for the data they describe,
// not one bit per block of each disk (about 590 KB per disk dense).
func TestBuildBitmapsMemoryFollowsData(t *testing.T) {
	const disks = 8
	l := fslayout.NewGrouped(workload.DefaultVolumeBlocks, workload.DefaultGroups)
	for i := 0; i < 6; i++ {
		if _, err := l.Alloc(64, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := array.NewStriper(disks, 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	maps := fslayout.BuildBitmaps(l, s)
	runtime.ReadMemStats(&after)
	perDisk := (after.TotalAlloc - before.TotalAlloc) / disks
	if perDisk >= 64<<10 {
		t.Fatalf("BuildBitmaps allocated %d bytes per disk, want < 64 KiB", perDisk)
	}
	// The modelled controller memory is still the dense bitmap.
	if got, want := maps[0].SizeBytes(), int((maps[0].Len()+7)/8); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}
