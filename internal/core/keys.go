package core

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"

	"spq/internal/grid"
	"spq/internal/mapreduce"
)

// CellKey is the composite map-output key of all three algorithms: the
// cell id routes the record to a reduce task (the custom Partitioner of
// Section 2.1) and Order fixes the secondary sort inside the cell (the
// custom Comparator):
//
//	pSPQ   : data objects 0, feature objects 1        — ascending
//	eSPQlen: data objects 0, feature objects |f.W|    — ascending
//	eSPQsco: data objects 2, feature objects w(f,q)   — descending
type CellKey struct {
	Cell  grid.CellID
	Order float64
}

// CellKeyAscLess sorts by cell, then ascending Order (pSPQ, eSPQlen).
func CellKeyAscLess(a, b CellKey) bool {
	if a.Cell != b.Cell {
		return a.Cell < b.Cell
	}
	return a.Order < b.Order
}

// CellKeyDescLess sorts by cell, then descending Order (eSPQsco: data
// objects first thanks to Order = 2 > any Jaccard score, then features
// from the highest scoring to the lowest).
func CellKeyDescLess(a, b CellKey) bool {
	if a.Cell != b.Cell {
		return a.Cell < b.Cell
	}
	return a.Order > b.Order
}

// CellKeyAscCompare is the three-way form of CellKeyAscLess, used by the
// map-side sort so each comparison is one comparator call.
func CellKeyAscCompare(a, b CellKey) int {
	if a.Cell != b.Cell {
		if a.Cell < b.Cell {
			return -1
		}
		return 1
	}
	switch {
	case a.Order < b.Order:
		return -1
	case a.Order > b.Order:
		return 1
	}
	return 0
}

// CellKeyDescCompare is the three-way form of CellKeyDescLess.
func CellKeyDescCompare(a, b CellKey) int {
	if a.Cell != b.Cell {
		if a.Cell < b.Cell {
			return -1
		}
		return 1
	}
	switch {
	case a.Order > b.Order:
		return -1
	case a.Order < b.Order:
		return 1
	}
	return 0
}

// CellKeyGroup groups records of the same cell into one reduce group.
func CellKeyGroup(a, b CellKey) bool { return a.Cell == b.Cell }

// CellKeyPartition routes a key to the reduce task owning its cell. With
// NumReducers equal to the number of cells (the paper's configuration)
// this is the identity on cell ids; with fewer reducers, cells are
// distributed round-robin and one reduce task processes multiple cells as
// separate groups (footnote 1 of Section 6.3).
func CellKeyPartition(k CellKey, numReducers int) int {
	return int(k.Cell) % numReducers
}

// CellKeyCodec serializes CellKeys for shuffle runs.
func CellKeyCodec() *mapreduce.Codec[CellKey] {
	return &mapreduce.Codec[CellKey]{
		Encode: func(w *bufio.Writer, k CellKey) error {
			var buf [12]byte
			binary.LittleEndian.PutUint32(buf[:4], uint32(k.Cell))
			binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(k.Order))
			_, err := w.Write(buf[:])
			return err
		},
		Decode: func(r *bufio.Reader) (CellKey, error) {
			var buf [12]byte
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return CellKey{}, err
			}
			return CellKey{
				Cell:  grid.CellID(int32(binary.LittleEndian.Uint32(buf[:4]))),
				Order: math.Float64frombits(binary.LittleEndian.Uint64(buf[4:])),
			}, nil
		},
	}
}
