package dfs

import "fmt"

// ReadRange reads up to n bytes of the named file starting at byte offset
// off. Fewer bytes are returned at end of file; a negative offset is an
// error. Each touched block is read from any live replica. The bytes are
// read-only: a range inside one block is the verified replica's own bytes,
// capacity-capped at the range (payload[lo:hi:hi]) so an append cannot
// reach past it, and stays unchanged for as long as it is held, whatever
// later quarantines, repairs or deletes the replica. A range across blocks
// is a fresh buffer.
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
	var out []byte
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
		if out == nil && hi-lo == int64(n) {
			return payload[lo:hi:hi], nil
		}
		if out == nil {
			out = make([]byte, 0, n)
		}
		out = append(out, payload[lo:hi]...)
		if len(out) >= n {
			break
		}
		blockStart = blockEnd
	}
	return out, nil
}
