package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// Rec is the intermediate value of all three jobs: what the reduce phase
// reads of one object. A data object is its id and location; of a
// feature's keywords the reduce functions need two numbers — |f.W| for the
// Equation-1 bound and |f.W ∩ q.W|, which with |f.W| and |q.W| gives the
// Jaccard score — so the Map phase computes those and the keyword list
// stops there. The value is fixed-size and pointer-free: the shuffle
// sorts, copies and merges it without touching the heap.
type Rec struct {
	ID  uint64
	Loc geo.Point
	// Len is |f.W| and Hits is |f.W ∩ q.W|; both zero on data objects.
	Len, Hits uint32
	Kind      data.Kind
}

// newRec computes the intermediate value of one object for the query.
func (q Query) newRec(o data.Object) Rec {
	r := Rec{ID: o.ID, Loc: o.Loc, Kind: o.Kind}
	if o.Kind == data.FeatureObject {
		r.Len = uint32(len(o.Keywords))
		r.Hits = uint32(q.hits(o.Keywords))
	}
	return r
}

// score returns w(f,q) of a feature record (Definition 1), 0 for a data
// record: the same expression as Query.Score, from the counts.
func (q Query) score(r Rec) float64 {
	return text.JaccardOfCounts(int(r.Hits), q.size(), int(r.Len))
}

// RecCodec serializes Recs for the shuffle runs of distributed execution:
// kind byte, id, location, then |f.W| and |f.W ∩ q.W| as varints. Decode
// reads bytes a worker received off the wire, so it rejects every value
// Encode cannot have produced — an unknown kind, counts on a data object,
// more hits than keywords, a keyword count past 32 bits — instead of
// handing the reduce functions a record that scores above 1.
func RecCodec() *mapreduce.Codec[Rec] {
	return &mapreduce.Codec[Rec]{Encode: encodeRec, Decode: decodeRec}
}

func encodeRec(w *bufio.Writer, r Rec) error {
	var buf [1 + 8 + 16 + 2*binary.MaxVarintLen32]byte
	buf[0] = byte(r.Kind)
	binary.LittleEndian.PutUint64(buf[1:], r.ID)
	binary.LittleEndian.PutUint64(buf[9:], math.Float64bits(r.Loc.X))
	binary.LittleEndian.PutUint64(buf[17:], math.Float64bits(r.Loc.Y))
	n := 25
	n += binary.PutUvarint(buf[n:], uint64(r.Len))
	n += binary.PutUvarint(buf[n:], uint64(r.Hits))
	_, err := w.Write(buf[:n])
	return err
}

func decodeRec(r *bufio.Reader) (Rec, error) {
	var fixed [25]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return Rec{}, err
	}
	rec := Rec{
		Kind: data.Kind(fixed[0]),
		ID:   binary.LittleEndian.Uint64(fixed[1:]),
		Loc: geo.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(fixed[9:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(fixed[17:])),
		},
	}
	if rec.Kind != data.DataObject && rec.Kind != data.FeatureObject {
		return Rec{}, fmt.Errorf("core: record %d: unknown kind byte %#x", rec.ID, fixed[0])
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return Rec{}, fmt.Errorf("core: record %d keyword count: %w", rec.ID, err)
	}
	hits, err := binary.ReadUvarint(r)
	if err != nil {
		return Rec{}, fmt.Errorf("core: record %d hit count: %w", rec.ID, err)
	}
	switch {
	case !rec.Loc.Finite():
		return Rec{}, fmt.Errorf("core: record %d at non-finite location %v", rec.ID, rec.Loc)
	case n > math.MaxUint32:
		return Rec{}, fmt.Errorf("core: record %d: keyword count %d overflows 32 bits", rec.ID, n)
	case hits > n:
		return Rec{}, fmt.Errorf("core: record %d: %d hits among %d keywords", rec.ID, hits, n)
	case rec.Kind == data.DataObject && n != 0:
		return Rec{}, fmt.Errorf("core: data record %d carries %d keywords", rec.ID, n)
	}
	rec.Len, rec.Hits = uint32(n), uint32(hits)
	return rec, nil
}
