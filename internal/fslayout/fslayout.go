// Package fslayout models the host file system's on-disk layout: which
// logical volume blocks belong to which file, in what order, and with how
// much fragmentation. From a layout and a striping map it derives the
// per-disk FOR continuation bitmaps of section 4 of the paper: one bit
// per physical block, set iff the block is the logical continuation,
// within the same file, of the physically preceding block on that disk.
//
// Like FFS/ext2, the allocator can spread files round-robin across block
// groups that span the whole volume, so seek distances on a partially
// filled array are realistic instead of being compressed into the first
// cylinders. The layout's tables and the bitmaps cost memory in
// proportion to the allocated data, not to the volume.
package fslayout

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"diskthru/internal/array"
)

// ErrVolumeFull reports that an allocation did not fit.
var ErrVolumeFull = errors.New("fslayout: volume full")

const noFile = int32(-1)

// owner is one block's entry in its group's ownership table: the file
// holding it and the block's offset in that file, or noFile for a hole.
type owner struct {
	file, offset int32
}

// Layout records file-to-block assignments on a logical volume. Every
// file's blocks sit in one slab, and each block group keeps one owner
// entry per block it has handed out, so the tables grow with the
// allocated data.
type Layout struct {
	volumeBlocks int64
	blocks       []int64 // every file's logical blocks, file after file
	fileEnds     []int   // file id -> end of its blocks in the slab

	// Block-group allocation state. The allocator only advances a
	// group's cursor, so the group's owned blocks and holes form a dense
	// prefix from its start: owners[g][i] describes block g*per+i, and
	// len(owners[g]) == cursors[g]-g*per.
	per     int64     // blocks per group; the last group also takes the remainder
	cursors []int64   // next free block per group
	ends    []int64   // exclusive end per group
	owners  [][]owner // group -> owner of each block below its cursor
	next    int       // round-robin group pointer

	maxTouched int64 // highest address written + 1
}

// New returns an empty layout whose allocator fills the volume
// contiguously from block 0 (a single block group).
func New(volumeBlocks int64) *Layout { return NewGrouped(volumeBlocks, 1) }

// NewGrouped returns an empty layout over volumeBlocks logical blocks
// whose allocator spreads successive files round-robin over the given
// number of equally spaced block groups, FFS/ext2-style.
func NewGrouped(volumeBlocks int64, groups int) *Layout {
	if volumeBlocks <= 0 {
		panic(fmt.Sprintf("fslayout: volume of %d blocks", volumeBlocks))
	}
	if groups <= 0 || int64(groups) > volumeBlocks {
		panic(fmt.Sprintf("fslayout: %d groups over %d blocks", groups, volumeBlocks))
	}
	l := &Layout{
		volumeBlocks: volumeBlocks,
		per:          volumeBlocks / int64(groups),
		cursors:      make([]int64, groups),
		ends:         make([]int64, groups),
		owners:       make([][]owner, groups),
	}
	for g := range l.cursors {
		l.cursors[g] = int64(g) * l.per
		l.ends[g] = int64(g+1) * l.per
	}
	l.ends[groups-1] = volumeBlocks
	return l
}

// VolumeBlocks reports the volume size in blocks.
func (l *Layout) VolumeBlocks() int64 { return l.volumeBlocks }

// UsedBlocks reports the highest touched logical block + 1 (holes from
// fragmentation count as used address space).
func (l *Layout) UsedBlocks() int64 { return l.maxTouched }

// AllocatedBlocks reports the total blocks owned by files.
func (l *Layout) AllocatedBlocks() int64 { return int64(len(l.blocks)) }

// NumFiles reports how many files have been allocated.
func (l *Layout) NumFiles() int { return len(l.fileEnds) }

// Groups reports the block-group count.
func (l *Layout) Groups() int { return len(l.cursors) }

// maxHole bounds the hole skipped on a fragmentation event, in blocks.
const maxHole = 4

// Alloc places a new file of the given number of blocks and returns its
// id. At each block junction the allocator breaks physical contiguity
// with probability fragProb, skipping a small hole — this reproduces the
// per-junction fragmentation model behind Figure 1. rng may be nil when
// fragProb is zero.
func (l *Layout) Alloc(blocks int, fragProb float64, rng *rand.Rand) (int, error) {
	if blocks <= 0 {
		return 0, fmt.Errorf("fslayout: allocation of %d blocks", blocks)
	}
	if fragProb > 0 && rng == nil {
		panic("fslayout: fragmentation requires an rng")
	}
	// Worst case every junction fragments with the maximum hole.
	need := int64(blocks)
	if fragProb > 0 {
		need = int64(blocks) * (1 + maxHole)
	}
	g, ok := l.pickGroup(need)
	if !ok {
		return 0, ErrVolumeFull
	}
	id := int32(len(l.fileEnds))
	l.blocks = reserve(l.blocks, blocks)
	owners := reserve(l.owners[g], int(need))
	for i := 0; i < blocks; i++ {
		if i > 0 && fragProb > 0 && rng.Float64() < fragProb {
			hole := 1 + rng.Intn(maxHole)
			l.cursors[g] += int64(hole)
			for ; hole > 0; hole-- {
				owners = append(owners, owner{file: noFile})
			}
		}
		l.blocks = append(l.blocks, l.cursors[g])
		l.cursors[g]++
		owners = append(owners, owner{file: id, offset: int32(i)})
	}
	l.owners[g] = owners
	if l.cursors[g] > l.maxTouched {
		l.maxTouched = l.cursors[g]
	}
	l.fileEnds = append(l.fileEnds, len(l.blocks))
	return int(id), nil
}

// Reserve sizes the tables for files more unfragmented files of blocks
// blocks each, spread round-robin over the groups, so a caller that
// knows its layout up front builds it without regrowing the tables.
func (l *Layout) Reserve(files, blocks int) {
	l.blocks = slices.Grow(l.blocks, files*blocks)
	l.fileEnds = slices.Grow(l.fileEnds, files)
	perGroup := (files + len(l.owners) - 1) / len(l.owners) * blocks
	for g := range l.owners {
		l.owners[g] = slices.Grow(l.owners[g], perGroup)
	}
}

// pickGroup returns the next round-robin group with room for need
// blocks, scanning all groups before giving up.
func (l *Layout) pickGroup(need int64) (int, bool) {
	for tries := 0; tries < len(l.cursors); tries++ {
		g := l.next
		l.next = (l.next + 1) % len(l.cursors)
		if l.ends[g]-l.cursors[g] >= need {
			return g, true
		}
	}
	return 0, false
}

// FileBlocks returns the file's logical blocks in file order. The slice
// is owned by the layout and capped at the file's end; callers must not
// modify it.
func (l *Layout) FileBlocks(id int) []int64 {
	start := 0
	if id > 0 {
		start = l.fileEnds[id-1]
	}
	end := l.fileEnds[id]
	return l.blocks[start:end:end]
}

// FileSize reports the file's length in blocks.
func (l *Layout) FileSize(id int) int { return len(l.FileBlocks(id)) }

// Owner reports the file owning a logical block and the block's offset in
// that file; ok is false for holes and never-allocated blocks.
func (l *Layout) Owner(logical int64) (file int, offset int, ok bool) {
	if logical < 0 || logical >= l.volumeBlocks {
		return 0, 0, false
	}
	g := logical / l.per
	if last := int64(len(l.owners) - 1); g > last {
		g = last // the remainder past the last full group
	}
	i := logical - g*l.per
	if i >= int64(len(l.owners[g])) {
		return 0, 0, false // past the group's cursor
	}
	o := l.owners[g][i]
	if o.file == noFile {
		return 0, 0, false
	}
	return int(o.file), int(o.offset), true
}

// AvgSequentialRun reports the mean length of the physically contiguous
// runs the files decompose into — the quantity on the Y axis of the
// paper's Figure 1.
func (l *Layout) AvgSequentialRun() float64 {
	var runs int64
	for id := range l.fileEnds {
		f := l.FileBlocks(id)
		runs++
		for i := 1; i < len(f); i++ {
			if f[i] != f[i-1]+1 {
				runs++
			}
		}
	}
	if runs == 0 {
		return 0
	}
	return float64(len(l.blocks)) / float64(runs)
}

// ExpectedRun is the closed-form counterpart of AvgSequentialRun for
// n-block files with independent per-junction break probability p:
// n / (1 + (n-1)p). The paper's Figure 1 examples (32 blocks at 5% ->
// ~12, 8 blocks at 5% -> ~6) follow from it.
func ExpectedRun(n int, p float64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / (1 + float64(n-1)*p)
}

// reserve returns s with room for n more elements. It at least doubles
// the capacity when it grows: the layout and bitmap tables are built by
// many small appends, and append grows a large slice by only a quarter,
// which would allocate about five times the final table.
func reserve[E any](s []E, n int) []E {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// ---- FOR continuation bitmap ----------------------------------------------

// A bitmap page covers 1<<pageShift blocks in wordsPerPage words.
const (
	pageShift    = 12
	wordsPerPage = 1 << pageShift / 64
)

// Bitmap is one disk's FOR continuation bitmap. It is page-sparse: only
// pages that hold a set bit are materialized, so its memory follows the
// data on the disk, while SizeBytes still reports the dense bitmap the
// controller is modelled to hold.
type Bitmap struct {
	pages []int32  // page -> 1 + its index in words/wordsPerPage; 0 if all-zero
	words []uint64 // the materialized pages, wordsPerPage words each
	n     int64
}

// NewBitmap returns an all-zero bitmap over n physical blocks.
func NewBitmap(n int64) *Bitmap {
	if n < 0 {
		panic("fslayout: negative bitmap size")
	}
	return &Bitmap{pages: make([]int32, (n+1<<pageShift-1)>>pageShift), n: n}
}

// Len reports the number of blocks covered.
func (b *Bitmap) Len() int64 { return b.n }

// SizeBytes reports the memory the bitmap occupies in the controller —
// the overhead FOR charges against the cache budget (546 KB for an 18 GB
// disk at 4 KB blocks). It is the dense size, however sparse the
// simulator's copy is.
func (b *Bitmap) SizeBytes() int { return int((b.n + 7) / 8) }

// Set marks block i as a same-file continuation of block i-1.
func (b *Bitmap) Set(i int64) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("fslayout: bitmap index %d out of [0,%d)", i, b.n))
	}
	pg := &b.pages[i>>pageShift]
	if *pg == 0 {
		b.words = reserve(b.words, wordsPerPage)
		b.words = b.words[:len(b.words)+wordsPerPage] // zero: never written
		*pg = int32(len(b.words) / wordsPerPage)
	}
	b.words[b.wordIndex(*pg, i)] |= 1 << uint(i%64)
}

// wordIndex locates block i's word within the materialized page pg.
func (b *Bitmap) wordIndex(pg int32, i int64) int {
	return int(pg-1)*wordsPerPage + int(i>>6)%wordsPerPage
}

// word returns the 64-bit word holding block i, which must be in range.
func (b *Bitmap) word(i int64) uint64 {
	pg := b.pages[i>>pageShift]
	if pg == 0 {
		return 0
	}
	return b.words[b.wordIndex(pg, i)]
}

// Get reports block i's continuation bit. Out-of-range blocks read as 0,
// which terminates read-ahead at the end of the disk.
func (b *Bitmap) Get(i int64) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.word(i)&(1<<uint(i%64)) != 0
}

// Run reports how many blocks FOR reads for a miss at pba: the missed
// block plus the consecutive continuation blocks after it, capped at max
// (the conventional read-ahead size). This is the paper's "count bits
// until a 0" rule, counted a word at a time.
func (b *Bitmap) Run(pba int64, max int) int {
	if max <= 0 {
		return 0
	}
	n := 1
	for i := pba + 1; n < max && i >= 0 && i < b.n; {
		shift := int(i % 64)
		// The continuation bits from i up to the end of its word; the
		// shift fills the top with zeros, so ones <= 64-shift. Bits past
		// the bitmap's length are never set, so the run stops there.
		ones := bits.TrailingZeros64(^(b.word(i) >> uint(shift)))
		if ones > max-n {
			ones = max - n
		}
		n += ones
		if shift+ones < 64 {
			break
		}
		i += int64(ones)
	}
	return n
}

// BuildBitmaps derives the per-disk continuation bitmaps for a layout
// striped by s. Bitmap d covers exactly the physical blocks of disk d
// that back the volume. Block p is a continuation when its physical
// predecessor holds the file's previous block; since every logical
// block has at most one owner, comparing the two addresses is exact.
// Cost is proportional to the allocated data, not the volume.
func BuildBitmaps(l *Layout, s array.Striper) []*Bitmap {
	maps := make([]*Bitmap, s.Disks)
	for d := 0; d < s.Disks; d++ {
		maps[d] = NewBitmap(s.BlocksOnDisk(d, l.VolumeBlocks()))
	}
	for id := range l.fileEnds {
		blocks := l.FileBlocks(id)
		for offset := 1; offset < len(blocks); offset++ {
			d, p := s.Locate(blocks[offset])
			if p > 0 && s.Logical(d, p-1) == blocks[offset-1] {
				maps[d].Set(p)
			}
		}
	}
	return maps
}
