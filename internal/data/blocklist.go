package data

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// A block list names every column block of a set of SPQ3 cells by frame:
// each cell's file, and per block its offset, length and record count. It
// is what a reader needs to fetch and decode the blocks, and nothing the
// planner prunes on (no bounds, no blooms), so a generation's sealed data
// cells list in a few bytes per block. Worker processes read it to build
// their own data views (see core.WireInfo).
//
// Format: uvarint cell count; per cell the uvarint length of its file
// name, the name, and the uvarint block count; per block its uvarint
// offset, length and record count.

// blockListSuffix ends the name of every block list file.
const blockListSuffix = ".blocks"

// BlockListFileName names the block list of a sealed generation's data
// cells, beside the cell segments of the same prefix.
func BlockListFileName(prefix string) string { return prefix + ".data" + blockListSuffix }

// IsBlockListFile reports whether name is a block list's file name. A
// worker reads only such files as block lists.
func IsBlockListFile(name string) bool { return strings.HasSuffix(name, blockListSuffix) }

// EncodeBlockList encodes the block list of cells, which must be stored
// SPQ3 cells (their zone maps carry frame offsets and lengths).
func EncodeBlockList(cells []CellStats) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(cells)))
	for _, cs := range cells {
		out = binary.AppendUvarint(out, uint64(len(cs.File)))
		out = append(out, cs.File...)
		out = binary.AppendUvarint(out, uint64(len(cs.Blocks)))
		for _, b := range cs.Blocks {
			out = binary.AppendUvarint(out, uint64(b.Offset))
			out = binary.AppendUvarint(out, uint64(b.Length))
			out = binary.AppendUvarint(out, uint64(b.Records))
		}
	}
	return out
}

// DecodeBlockList decodes a block list into one read selection per cell:
// every block, stored, with each zone map holding only its frame and
// record count. The bytes reach a worker off the wire, so every count is
// checked against the bytes left before it sizes an allocation (each cell
// and each block encodes to at least one byte), and a frame no writer
// produces — empty, over colMaxBlockRecords records, past the largest
// offset — is an error, never a panic.
func DecodeBlockList(raw []byte) ([]ColSel, error) {
	d := listDecoder{raw: raw}
	n := d.count("cell count")
	var cells []CellStats
	if d.err == nil {
		cells = make([]CellStats, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		name := d.count("file name length")
		if d.err == nil && name == 0 {
			d.err = fmt.Errorf("cell %d: empty file name", i)
		}
		if d.err != nil {
			break
		}
		cells = append(cells, CellStats{File: string(d.raw[:name])})
		cs := &cells[i]
		d.raw = d.raw[name:]
		nb := d.count("block count")
		if d.err == nil && nb == 0 {
			d.err = fmt.Errorf("cell %q: no blocks", cs.File)
		}
		if d.err != nil {
			break
		}
		cs.Blocks = make([]BlockStats, nb)
		for j := range cs.Blocks {
			off, length, recs := d.uvarint(), d.uvarint(), d.uvarint()
			switch {
			case d.err != nil:
			case length == 0 || length > math.MaxInt32 || off > math.MaxInt64-length:
				d.err = fmt.Errorf("cell %q block %d: bad frame range %d+%d", cs.File, j, off, length)
			case recs == 0 || recs > colMaxBlockRecords:
				d.err = fmt.Errorf("cell %q block %d: %d records, must be in [1, %d]", cs.File, j, recs, colMaxBlockRecords)
			}
			if d.err != nil {
				break
			}
			cs.Blocks[j] = BlockStats{Records: int(recs), Offset: int64(off), Length: int(length)}
			cs.Records += int(recs)
		}
	}
	if d.err == nil && len(d.raw) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.raw))
	}
	if d.err != nil {
		return nil, fmt.Errorf("data: block list: %w", d.err)
	}
	return SelectAll(cells), nil
}

// listDecoder reads uvarints off a block list, keeping the first error.
type listDecoder struct {
	raw []byte
	err error
}

func (d *listDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.raw)
	if n <= 0 {
		d.err = fmt.Errorf("truncated or overlong varint")
		return 0
	}
	d.raw = d.raw[n:]
	return v
}

// count reads a count of things that each take at least one of the bytes
// left, and rejects a larger one.
func (d *listDecoder) count(what string) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.raw)) {
		d.err = fmt.Errorf("%s %d exceeds the %d bytes left", what, v, len(d.raw))
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}
