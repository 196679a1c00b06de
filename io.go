package spq

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"spq/internal/data"
	"spq/internal/text"
)

// MaxLineBytes is the longest input line LoadLines accepts, in bytes. A
// feature line's length is dominated by its keyword list, which real
// corpora can grow to megabytes (a heavily-tagged object serializes every
// tag on one line); the previous hard 1 MiB scanner cap silently failed
// the whole batch with an unhelpful "token too long". The cap exists only
// to bound memory against pathological input — a missing newline in a
// multi-gigabyte file — and a line exceeding it fails the load with an
// error naming the limit.
const MaxLineBytes = 64 << 20

// LoadLines reads objects in the library's text format, one per line:
//
//	D <id> <x> <y>                 — data object (tab-separated)
//	F <id> <x> <y> <kw1,kw2,...>   — feature object
//
// This is the same format cmd/spqgen emits. Lines may be up to
// MaxLineBytes long.
//
// Records are validated like AddData's — finite coordinates, unique ids
// per dataset — and a bad record fails the load with an error naming the
// line and the offending object. The whole batch is parsed into a
// batch-local dictionary and committed only after every line validates,
// so a failed call leaves the engine unchanged, its keyword dictionary
// included. On a sealed engine the batch appends into the in-memory delta
// and becomes visible to queries atomically when the call returns (see
// AddData).
func (e *Engine) LoadLines(r io.Reader) error {
	sc := bufio.NewScanner(r)
	// Start small and let the scanner grow up to the documented cap: most
	// lines are tens of bytes, and pre-allocating the worst case per load
	// call would cost 64 MiB on every tiny batch.
	sc.Buffer(make([]byte, 0, 64<<10), MaxLineBytes)
	words := text.NewDict()
	var objs []data.Object
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		o, err := data.ParseLine(line, words)
		if err != nil {
			return fmt.Errorf("spq: line %d: %w", len(objs)+1, err)
		}
		objs = append(objs, o)
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return fmt.Errorf("spq: line %d: longer than MaxLineBytes (%d): %w", len(objs)+1, MaxLineBytes, err)
		}
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	i, err := e.loadLocked(objs, func(i int) []string { return words.Words(objs[i].Keywords) })
	if i >= 0 {
		return fmt.Errorf("spq: line %d: %w", i+1, err)
	}
	return err
}

// LoadFile reads a text-format object file from the local file system.
func (e *Engine) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("spq: %w", err)
	}
	defer f.Close()
	if err := e.LoadLines(bufio.NewReader(f)); err != nil {
		return fmt.Errorf("spq: %s: %w", path, err)
	}
	return nil
}
