// Package trace defines the disk-level access trace the simulator
// replays: a sequence of records, each touching a contiguous range of one
// file's blocks, read or write. Traces carry only what survived the
// host's application and buffer caches — exactly what the paper's
// instrumented Linux kernel logged (section 6.3).
//
// The package also provides a compact binary encoding (for persisting
// generated traces) and the per-block access statistics that feed
// Figure 2 and the HDC planner.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"diskthru/internal/fslayout"
	"diskthru/internal/stats"
)

// Record is one disk-level access: Blocks blocks of file File starting at
// block offset Offset within the file.
type Record struct {
	File   int32
	Offset int32
	Blocks int32
	Write  bool
}

// Validate reports malformed records.
func (r Record) Validate() error {
	if r.File < 0 || r.Offset < 0 || r.Blocks <= 0 {
		return fmt.Errorf("trace: bad record %+v", r)
	}
	return nil
}

// Trace is an ordered sequence of records.
type Trace struct {
	Records []Record
}

// Len reports the record count.
func (t *Trace) Len() int { return len(t.Records) }

// Source returns a generator over the records in order — the record
// source a replay pulls from, the same shape a generated workload
// yields. It reports false once the records run out, and on every call
// after that.
func (t *Trace) Source() func() (Record, bool) {
	i := 0
	return func() (Record, bool) {
		if i >= len(t.Records) {
			return Record{}, false
		}
		i++
		return t.Records[i-1], true
	}
}

// WriteFraction reports the fraction of records that are writes.
func (t *Trace) WriteFraction() float64 {
	if len(t.Records) == 0 {
		return 0
	}
	w := 0
	for _, r := range t.Records {
		if r.Write {
			w++
		}
	}
	return float64(w) / float64(len(t.Records))
}

// TotalBlocks reports the sum of record lengths.
func (t *Trace) TotalBlocks() int64 {
	var n int64
	for _, r := range t.Records {
		n += int64(r.Blocks)
	}
	return n
}

// BlockCounts tallies accesses per logical block by resolving each record
// against the layout. Records pointing past a file's end are truncated,
// matching how a real trace replayer would clamp stale records.
func (t *Trace) BlockCounts(l *fslayout.Layout) *stats.AccessCounter {
	c := stats.NewAccessCounter()
	for _, r := range t.Records {
		blocks := l.FileBlocks(int(r.File))
		lo := int(r.Offset)
		hi := lo + int(r.Blocks)
		if lo >= len(blocks) {
			continue
		}
		if hi > len(blocks) {
			hi = len(blocks)
		}
		for _, b := range blocks[lo:hi] {
			c.Add(b, 1)
		}
	}
	return c
}

// ---- binary encoding ---------------------------------------------------------

// magic identifies the trace file format; the trailing byte is a version.
var magic = [4]byte{'D', 'T', 'R', 1}

var (
	// ErrBadMagic reports a stream that is not a trace.
	ErrBadMagic = errors.New("trace: bad magic")
)

// Encode writes the trace in the compact binary format.
func Encode(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(t.Records))); err != nil {
		return err
	}
	for _, r := range t.Records {
		if err := r.Validate(); err != nil {
			return err
		}
		var flags uint8
		if r.Write {
			flags = 1
		}
		for _, v := range []any{r.File, r.Offset, r.Blocks, flags} {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Decode reads a trace written by Encode.
func Decode(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	const maxRecords = 1 << 28 // refuse absurd headers rather than OOM
	if n > maxRecords {
		return nil, fmt.Errorf("trace: header claims %d records", n)
	}
	// Preallocate conservatively: the header is attacker-controlled and
	// the stream may be truncated, so let append grow the slice instead
	// of trusting n for a giant up-front allocation.
	capHint := n
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	t := &Trace{Records: make([]Record, 0, capHint)}
	for i := uint64(0); i < n; i++ {
		var rec Record
		var flags uint8
		for _, v := range []any{&rec.File, &rec.Offset, &rec.Blocks, &flags} {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return nil, err
			}
		}
		rec.Write = flags&1 != 0
		if err := rec.Validate(); err != nil {
			return nil, err
		}
		t.Records = append(t.Records, rec)
	}
	return t, nil
}

// CoalesceAdjacent merges neighboring records that continue the same file
// sequentially with the same direction — the offline analogue of the
// 2 ms coalescing window the paper applied when collecting its logs.
func CoalesceAdjacent(t *Trace) *Trace {
	if len(t.Records) == 0 {
		return &Trace{}
	}
	out := make([]Record, 0, len(t.Records))
	cur := t.Records[0]
	for _, r := range t.Records[1:] {
		if r.File == cur.File && r.Write == cur.Write && r.Offset == cur.Offset+cur.Blocks {
			cur.Blocks += r.Blocks
			continue
		}
		out = append(out, cur)
		cur = r
	}
	out = append(out, cur)
	return &Trace{Records: out}
}
