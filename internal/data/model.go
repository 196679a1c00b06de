// Package data provides the object model of the paper — spatial data
// objects p ∈ O and spatio-textual feature objects f ∈ F — together with
// the serialization formats used to store them in the simulated DFS, and
// synthetic dataset generators reproducing the statistical properties of
// the paper's four experimental datasets (Flickr, Twitter, Uniform,
// Clustered; Section 7.1).
package data

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"spq/internal/geo"
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

// EncodeLine renders the object in the tab-separated text format of the
// ingest and interchange files (spqgen output, Engine.LoadLines):
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
// keywords into dict. Empty keywords (",," or a trailing comma) are not
// keywords and are skipped, so every parsed object encodes back to a line
// that parses to it.
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
		if len(fields) >= 5 {
			o.Keywords = dict.InternAll(strings.FieldsFunc(fields[4], func(r rune) bool { return r == ',' }))
		}
	default:
		return Object{}, fmt.Errorf("data: unknown kind %q in %q", fields[0], line)
	}
	return o, nil
}
