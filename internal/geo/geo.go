// Package geo provides the 2-dimensional spatial primitives used by the
// SPQ algorithms: points, axis-aligned rectangles, Euclidean distance and
// the MINDIST lower bound between a point and a rectangle.
//
// All coordinates are float64 in an arbitrary, caller-defined coordinate
// system. The benchmark harness normalizes datasets to the unit square
// [0,1]x[0,1] as in Section 6.3 of the paper, but nothing in this package
// assumes it.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the 2-dimensional data space.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Finite reports whether both coordinates are finite: neither NaN nor
// infinite.
func (p Point) Finite() bool {
	return math.Abs(p.X) <= math.MaxFloat64 && math.Abs(p.Y) <= math.MaxFloat64
}

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred primitive on hot paths: comparing
// Dist2(p,q) <= r*r is equivalent to Dist(p,q) <= r for r >= 0.
func Dist2(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Rect is a closed axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
// A Rect with MinX > MaxX or MinY > MaxY is empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the extent of r along the x axis (0 for empty rects).
func (r Rect) Width() float64 {
	if r.Empty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the extent of r along the y axis (0 for empty rects).
func (r Rect) Height() float64 {
	if r.Empty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r (0 for empty rects).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Intersects reports whether the two closed rectangles share at least one
// point.
func (r Rect) Intersects(s Rect) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	switch {
	case r.Empty():
		return s
	case s.Empty():
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Expand returns r grown by d on every side. A negative d shrinks the
// rectangle and may produce an empty one.
func (r Rect) Expand(d float64) Rect {
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// MinDist returns MINDIST(p, r): the minimum Euclidean distance from p to
// any point of the closed rectangle r. It is 0 when p lies inside r.
//
// This is the bound used by Lemma 1 of the paper: a feature object f in
// cell Cj must be duplicated to cell Ci iff MinDist(f, Ci) <= query radius.
func MinDist(p Point, r Rect) float64 {
	return math.Sqrt(MinDist2(p, r))
}

// MinDist2 returns the squared MINDIST between p and r. Prefer it on hot
// paths: MinDist2(p,r) <= rad*rad is equivalent to MinDist(p,r) <= rad.
func MinDist2(p Point, r Rect) float64 {
	var dx, dy float64
	switch {
	case p.X < r.MinX:
		dx = r.MinX - p.X
	case p.X > r.MaxX:
		dx = p.X - r.MaxX
	}
	switch {
	case p.Y < r.MinY:
		dy = r.MinY - p.Y
	case p.Y > r.MaxY:
		dy = p.Y - r.MaxY
	}
	return dx*dx + dy*dy
}

// RectMinDist2 returns the squared MINDIST between the closed rectangles a
// and b: the smallest squared distance between any point of a and any point
// of b, 0 when they intersect. It is the cell-level pruning bound of the
// query planner: if RectMinDist2 of a data cell's and a feature cell's
// bounding rectangles exceeds r², no object pair across the two cells can
// be within distance r.
func RectMinDist2(a, b Rect) float64 {
	var dx, dy float64
	switch {
	case a.MaxX < b.MinX:
		dx = b.MinX - a.MaxX
	case b.MaxX < a.MinX:
		dx = a.MinX - b.MaxX
	}
	switch {
	case a.MaxY < b.MinY:
		dy = b.MinY - a.MaxY
	case b.MaxY < a.MinY:
		dy = a.MinY - b.MaxY
	}
	return dx*dx + dy*dy
}

// MaxDist returns the maximum Euclidean distance from p to any point of the
// closed rectangle r (the distance to the farthest corner). It is an upper
// bound counterpart of MinDist, useful for pruning in index traversals.
func MaxDist(p Point, r Rect) float64 {
	dx := math.Max(math.Abs(p.X-r.MinX), math.Abs(p.X-r.MaxX))
	dy := math.Max(math.Abs(p.Y-r.MinY), math.Abs(p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// Clamp returns the point of the closed rectangle r nearest to p.
func Clamp(p Point, r Rect) Point {
	q := p
	if q.X < r.MinX {
		q.X = r.MinX
	} else if q.X > r.MaxX {
		q.X = r.MaxX
	}
	if q.Y < r.MinY {
		q.Y = r.MinY
	} else if q.Y > r.MaxY {
		q.Y = r.MaxY
	}
	return q
}
