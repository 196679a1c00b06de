package dfs

import (
	"bytes"
	"fmt"
)

// Split describes one input split of a file: a byte range aligned to a
// block, plus the hosts storing that block. It mirrors Hadoop's FileSplit
// and is the scheduling unit handed to map tasks.
type Split struct {
	File   string
	Index  int      // block index within the file
	Offset int64    // byte offset of the split within the file
	Length int      // byte length of the split
	Hosts  []string // DataNode names holding a replica of the block
}

// String implements fmt.Stringer.
func (s Split) String() string {
	return fmt.Sprintf("%s[%d @%d +%d]", s.File, s.Index, s.Offset, s.Length)
}

// Splits returns one Split per block of the named file, in file order.
func (fs *FileSystem) Splits(name string) ([]Split, error) {
	fs.mu.RLock()
	f, ok := fs.files[name]
	fs.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]Split, len(f.blocks))
	var off int64
	for i, b := range f.blocks {
		hosts := make([]string, len(b.replicas))
		for j, ni := range b.replicas {
			hosts[j] = fs.nodes[ni].name
		}
		out[i] = Split{File: name, Index: i, Offset: off, Length: b.length, Hosts: hosts}
		off += int64(b.length)
	}
	return out, nil
}

// ReadRange reads up to n bytes of the named file starting at byte offset
// off. Fewer bytes are returned at end of file; a negative offset is an
// error. Each touched block is read from any live replica.
func (fs *FileSystem) ReadRange(name string, off int64, n int) ([]byte, error) {
	if off < 0 {
		return nil, fmt.Errorf("dfs: read %q: negative offset %d", name, off)
	}
	fs.mu.RLock()
	f, ok := fs.files[name]
	fs.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	if off >= f.length || n <= 0 {
		return nil, nil
	}
	if rem := f.length - off; int64(n) > rem {
		n = int(rem)
	}
	out := make([]byte, 0, n)
	var blockStart int64
	for i, b := range f.blocks {
		blockEnd := blockStart + int64(b.length)
		if blockEnd <= off {
			blockStart = blockEnd
			continue
		}
		payload, err := fs.readBlock(name, i, b)
		if err != nil {
			return nil, err
		}
		lo := int64(0)
		if off > blockStart {
			lo = off - blockStart
		}
		hi := int64(b.length)
		if want := off + int64(n) - blockStart; want < hi {
			hi = want
		}
		out = append(out, payload[lo:hi]...)
		if len(out) >= n {
			break
		}
		blockStart = blockEnd
	}
	return out, nil
}

// SplitLines reads the newline-delimited records belonging to a split,
// applying Hadoop's record-boundary convention: a split that does not start
// at offset 0 skips the first (possibly partial) line, and every split
// reads past its end into the next block to complete its final line. As a
// result every line of the file is processed by exactly one split, even
// when lines straddle block boundaries.
//
// yield is called once per line (without the trailing newline); returning
// false stops the iteration early.
func (fs *FileSystem) SplitLines(s Split, yield func(line []byte) bool) error {
	fs.mu.RLock()
	f, ok := fs.files[s.File]
	fs.mu.RUnlock()
	if !ok {
		return ErrNotFound
	}
	fileLen := f.length

	pos := s.Offset
	end := s.Offset + int64(s.Length)

	// Skip the partial first line: scan forward to the byte after the
	// first '\n' at or after pos-1. Reading from pos-1 handles the case
	// where the previous split's data ends exactly with '\n' at pos-1.
	if pos > 0 {
		scan := pos - 1
		for {
			chunk, err := fs.ReadRange(s.File, scan, 64<<10)
			if err != nil {
				return err
			}
			if len(chunk) == 0 {
				return nil // split starts inside the file's final partial line
			}
			if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
				pos = scan + int64(i) + 1
				break
			}
			scan += int64(len(chunk))
		}
		if pos >= end {
			// The entire split is inside one line owned by a predecessor.
			return nil
		}
	}

	// Emit lines while they start before the split end.
	buf := make([]byte, 0, 64<<10)
	bufStart := pos
	refill := func(from int64) error {
		chunk, err := fs.ReadRange(s.File, from, 64<<10)
		if err != nil {
			return err
		}
		buf = append(buf, chunk...)
		return nil
	}
	for pos < end {
		if pos >= fileLen {
			return nil
		}
		// Ensure buf holds data from pos onward up to the next newline.
		rel := int(pos - bufStart)
		if rel > 0 {
			buf = buf[:copy(buf, buf[rel:])]
			bufStart = pos
		}
		var nl int
		for {
			nl = bytes.IndexByte(buf, '\n')
			if nl >= 0 {
				break
			}
			prev := len(buf)
			if err := refill(bufStart + int64(prev)); err != nil {
				return err
			}
			if len(buf) == prev {
				// EOF without trailing newline: final line.
				if len(buf) > 0 {
					yield(buf)
				}
				return nil
			}
		}
		if !yield(buf[:nl]) {
			return nil
		}
		pos = bufStart + int64(nl) + 1
	}
	return nil
}
