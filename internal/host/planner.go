package host

import (
	"diskthru/internal/array"
	"diskthru/internal/fslayout"
	"diskthru/internal/trace"
)

// PlanHDC selects, for each disk, the physical blocks to pin: the blocks
// that receive the most accesses in the disk-level trace, each stored on
// its own disk (the paper's "perfect knowledge of the future" policy,
// section 6.1). perDiskBlocks bounds each controller's pinned region.
// The returned slice is indexed by disk. It is PlanHDCRanked over
// RankBlocks(t, l).
func PlanHDC(t *trace.Trace, l *fslayout.Layout, s array.Striper, perDiskBlocks int) [][]int64 {
	return PlanHDCRanked(RankBlocks(t, l), s, perDiskBlocks)
}

// RankBlocks lists every logical block the trace touches, most accessed
// first and ties by ascending block — the order PlanHDC pins in. It
// depends only on the trace and layout, so a caller planning the same
// trace for several arrays or region sizes ranks it once and shares the
// read-only result.
func RankBlocks(t *trace.Trace, l *fslayout.Layout) []int64 {
	counts := t.BlockCounts(l).Ranked()
	ranked := make([]int64, len(counts))
	for i, bc := range counts {
		ranked[i] = bc.Block
	}
	return ranked
}

// PlanHDCRanked is PlanHDC over a RankBlocks ranking: it walks ranked in
// order, giving each disk its first perDiskBlocks blocks. ranked is only
// read.
func PlanHDCRanked(ranked []int64, s array.Striper, perDiskBlocks int) [][]int64 {
	plan := make([][]int64, s.Disks)
	if perDiskBlocks <= 0 {
		return plan
	}
	full := 0
	for _, b := range ranked {
		d, pba := s.Locate(b)
		if len(plan[d]) >= perDiskBlocks {
			continue
		}
		plan[d] = append(plan[d], pba)
		if len(plan[d]) == perDiskBlocks {
			full++
			if full == s.Disks {
				break
			}
		}
	}
	return plan
}

// MinReadAheadBlocks is the paper's R_min sizing rule (section 5): the
// minimum read-ahead cache an array needs to serve t streams without
// interference. Blind read-ahead needs a whole segment per stream;
// FOR needs only the average file size per stream.
func MinReadAheadBlocks(streams, segmentBlocks, avgFileBlocks int, useFOR bool) int {
	if useFOR && avgFileBlocks < segmentBlocks {
		return streams * avgFileBlocks
	}
	return streams * segmentBlocks
}

// MaxHDCBlocks is H_max = D*c - R_min from section 5: the most cache the
// host should hand to HDC array-wide, given each controller holds
// cacheBlocks.
func MaxHDCBlocks(disks, cacheBlocks, minReadAheadBlocks int) int {
	h := disks*cacheBlocks - minReadAheadBlocks
	if h < 0 {
		return 0
	}
	return h
}
