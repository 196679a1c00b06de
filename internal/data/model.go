// Package data provides the object model of the paper — spatial data
// objects p ∈ O and spatio-textual feature objects f ∈ F — together with
// the serialization formats used to store them in the simulated DFS and to
// shuffle them between MapReduce tasks, and synthetic dataset generators
// reproducing the statistical properties of the paper's four experimental
// datasets (Flickr, Twitter, Uniform, Clustered; Section 7.1).
package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"spq/internal/geo"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// Kind distinguishes the two object datasets of the paper.
type Kind uint8

// Object kinds.
const (
	// DataObject is a member of the object dataset O: the objects that are
	// ranked and returned by the query.
	DataObject Kind = iota
	// FeatureObject is a member of the feature dataset F: spatio-textual
	// objects that determine the scores of data objects.
	FeatureObject
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == DataObject {
		return "data"
	}
	return "feature"
}

// Object is one spatial object. Data objects have an empty keyword set;
// feature objects carry interned keywords (Section 3.1).
type Object struct {
	Kind     Kind
	ID       uint64
	Loc      geo.Point
	Keywords text.KeywordSet
}

// String implements fmt.Stringer.
func (o Object) String() string {
	return fmt.Sprintf("%s#%d@%v kw=%d", o.Kind, o.ID, o.Loc, len(o.Keywords))
}

// EncodeLine renders the object in the tab-separated text format stored in
// the DFS:
//
//	D <id> <x> <y>
//	F <id> <x> <y> <kw1,kw2,...>
//
// Keywords are written as strings resolved through dict so that files are
// self-describing and partition-independent.
func EncodeLine(w io.Writer, o Object, dict *text.Dict) error {
	var err error
	switch o.Kind {
	case DataObject:
		_, err = fmt.Fprintf(w, "D\t%d\t%g\t%g\n", o.ID, o.Loc.X, o.Loc.Y)
	case FeatureObject:
		_, err = fmt.Fprintf(w, "F\t%d\t%g\t%g\t%s\n",
			o.ID, o.Loc.X, o.Loc.Y, strings.Join(dict.Words(o.Keywords), ","))
	default:
		err = fmt.Errorf("data: unknown kind %d", o.Kind)
	}
	return err
}

// ParseLine decodes one text line produced by EncodeLine, interning
// keywords into dict.
func ParseLine(line []byte, dict *text.Dict) (Object, error) {
	fields := strings.Split(string(line), "\t")
	if len(fields) < 4 {
		return Object{}, fmt.Errorf("data: malformed line %q", line)
	}
	id, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return Object{}, fmt.Errorf("data: bad id in %q: %w", line, err)
	}
	x, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Object{}, fmt.Errorf("data: bad x in %q: %w", line, err)
	}
	y, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return Object{}, fmt.Errorf("data: bad y in %q: %w", line, err)
	}
	o := Object{ID: id, Loc: geo.Point{X: x, Y: y}}
	switch fields[0] {
	case "D":
		o.Kind = DataObject
	case "F":
		o.Kind = FeatureObject
		if len(fields) >= 5 && fields[4] != "" {
			o.Keywords = dict.InternAll(strings.Split(fields[4], ","))
		}
	default:
		return Object{}, fmt.Errorf("data: unknown kind %q in %q", fields[0], line)
	}
	return o, nil
}

// ObjectCodec serializes objects compactly (varint-based) for MapReduce
// shuffle runs. Keyword ids round-trip as ids: within one job execution the
// dictionary is shared, so ids are stable.
func ObjectCodec() *mapreduce.Codec[Object] {
	return &mapreduce.Codec[Object]{Encode: encodeObject, Decode: decodeObject}
}

func encodeObject(w *bufio.Writer, o Object) error {
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := w.Write(buf[:n])
		return err
	}
	if err := w.WriteByte(byte(o.Kind)); err != nil {
		return err
	}
	if err := put(o.ID); err != nil {
		return err
	}
	var fixed [16]byte
	binary.LittleEndian.PutUint64(fixed[:8], math.Float64bits(o.Loc.X))
	binary.LittleEndian.PutUint64(fixed[8:], math.Float64bits(o.Loc.Y))
	if _, err := w.Write(fixed[:]); err != nil {
		return err
	}
	if err := put(uint64(len(o.Keywords))); err != nil {
		return err
	}
	for _, kw := range o.Keywords {
		if err := put(uint64(kw)); err != nil {
			return err
		}
	}
	return nil
}

func decodeObject(r *bufio.Reader) (Object, error) {
	var o Object
	kind, err := r.ReadByte()
	if err != nil {
		return o, err
	}
	o.Kind = Kind(kind)
	id, err := binary.ReadUvarint(r)
	if err != nil {
		return o, err
	}
	o.ID = id
	var fixed [16]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return o, err
	}
	o.Loc.X = math.Float64frombits(binary.LittleEndian.Uint64(fixed[:8]))
	o.Loc.Y = math.Float64frombits(binary.LittleEndian.Uint64(fixed[8:]))
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return o, err
	}
	if n > 0 {
		// n is unchecked wire input and every id takes at least one byte,
		// so presize only by the bytes already buffered; a count the bytes
		// do not back runs into EOF after allocating in proportion to them.
		kws := make(text.KeywordSet, 0, min(n, uint64(r.Buffered())))
		for i := uint64(0); i < n; i++ {
			v, err := binary.ReadUvarint(r)
			if err != nil {
				return o, fmt.Errorf("data: keyword %d of %d: %w", i, n, err)
			}
			kws = append(kws, uint32(v))
		}
		o.Keywords = kws // already sorted: encoded from a sorted set
	}
	return o, nil
}
