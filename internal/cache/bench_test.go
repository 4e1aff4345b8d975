package cache

import "testing"

// The benchmarks model a controller serving interleaved sequential
// streams with 32-block (128 KB) read-aheads: the paper's 4 MB cache of
// 4 KB blocks, as 27 segments or as one 1024-block pool. Each reports
// ns per block placed, the unit bench/ reports for the same stores.

const (
	benchStreams = 40
	benchRead    = 32
)

// streamRead returns the i-th read of the interleaved stream mix.
func streamRead(i int) int64 {
	stream := int64(i % benchStreams)
	return stream<<20 + int64(i/benchStreams)*benchRead
}

func reportPerBlock(b *testing.B, blocks int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(blocks), "ns/block")
}

func BenchmarkSegmentStore(b *testing.B) {
	s := NewSegmentStore(27, benchRead)
	for i := 0; i < b.N; i++ {
		lba := streamRead(i)
		if !s.Contains(lba) {
			s.Insert(lba, benchRead)
		}
		s.Touch(lba)
	}
	reportPerBlock(b, b.N*benchRead)
}

func BenchmarkBlockStoreMRU(b *testing.B) {
	s := NewBlockStore(1024, EvictMRU)
	for i := 0; i < b.N; i++ {
		s.Insert(streamRead(i), benchRead)
	}
	reportPerBlock(b, b.N*benchRead)
}

// BenchmarkHDCInsertRead places media reads as the disk does: split at
// the blocks a 2 MB HDC region has pinned, scattered over the streams.
func BenchmarkHDCInsertRead(b *testing.B) {
	h := NewHDCRegion(512)
	for i := 0; h.Len() < h.Capacity(); i++ {
		h.Pin(streamRead(i) + int64(i%benchRead))
	}
	s := NewSegmentStore(27, benchRead)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba, count := streamRead(i), benchRead
		for count > 0 {
			k := h.FirstPinned(lba, count)
			if k > 0 {
				s.Insert(lba, k)
			}
			lba += int64(k + 1)
			count -= k + 1
		}
	}
	reportPerBlock(b, b.N*benchRead)
}
