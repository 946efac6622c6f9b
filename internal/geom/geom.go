// Package geom provides the geometric primitives used throughout JanusAQP:
// d-dimensional points and axis-aligned rectangles (hyper-rectangles).
//
// A rectangle is the predicate region of a query template
//
//	SELECT AGG(A) FROM D WHERE Rectangle(D.c1, ..., D.cd)
//
// i.e. a conjunction of per-attribute interval constraints. Rectangles are
// closed on both ends: a point p is inside R iff Min[j] <= p[j] <= Max[j]
// for every dimension j.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a location in d-dimensional predicate-attribute space.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Rect is a closed axis-aligned hyper-rectangle. The zero value is not
// usable; construct rectangles with NewRect, Universe, or PointRect.
type Rect struct {
	Min Point
	Max Point
}

// NewRect builds a rectangle from its lower and upper corners. It panics if
// the corners have different dimensionality or if any min exceeds its max,
// because a malformed predicate indicates a programming error, not a data
// error.
func NewRect(min, max Point) Rect {
	if len(min) != len(max) {
		panic(fmt.Sprintf("geom: corner dimensionality mismatch %d vs %d", len(min), len(max)))
	}
	for j := range min {
		if min[j] > max[j] {
			panic(fmt.Sprintf("geom: inverted interval on dim %d: [%g, %g]", j, min[j], max[j]))
		}
	}
	return Rect{Min: min.Clone(), Max: max.Clone()}
}

// Universe returns the rectangle covering all of R^d.
func Universe(d int) Rect {
	min := make(Point, d)
	max := make(Point, d)
	for j := 0; j < d; j++ {
		min[j] = math.Inf(-1)
		max[j] = math.Inf(1)
	}
	return Rect{Min: min, Max: max}
}

// PointRect returns the degenerate rectangle containing exactly p.
func PointRect(p Point) Rect {
	return Rect{Min: p.Clone(), Max: p.Clone()}
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Min) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
}

// Contains reports whether p lies inside r (boundaries included).
func (r Rect) Contains(p Point) bool {
	for j := range r.Min {
		if p[j] < r.Min[j] || p[j] > r.Max[j] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether other lies entirely inside r.
func (r Rect) ContainsRect(other Rect) bool {
	for j := range r.Min {
		if other.Min[j] < r.Min[j] || other.Max[j] > r.Max[j] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and other share at least one point.
func (r Rect) Intersects(other Rect) bool {
	for j := range r.Min {
		if other.Max[j] < r.Min[j] || other.Min[j] > r.Max[j] {
			return false
		}
	}
	return true
}

// Intersection returns the overlap of r and other. ok is false when the
// rectangles are disjoint, in which case the returned rectangle is invalid.
func (r Rect) Intersection(other Rect) (out Rect, ok bool) {
	if !r.Intersects(other) {
		return Rect{}, false
	}
	min := make(Point, len(r.Min))
	max := make(Point, len(r.Min))
	for j := range r.Min {
		min[j] = math.Max(r.Min[j], other.Min[j])
		max[j] = math.Min(r.Max[j], other.Max[j])
	}
	return Rect{Min: min, Max: max}, true
}

// SplitAt cuts r into two rectangles along dimension dim at coordinate x:
// the left half keeps points with coordinate <= x and the right half keeps
// points with coordinate > x (approximated by a half-open boundary nudged by
// the smallest representable step, so that points routed by "<= x goes left"
// match rectangle containment). x must lie inside the interval.
func (r Rect) SplitAt(dim int, x float64) (left, right Rect) {
	left = r.Clone()
	right = r.Clone()
	left.Max[dim] = x
	right.Min[dim] = math.Nextafter(x, math.Inf(1))
	return left, right
}

// Extent returns the width of r along dimension dim.
func (r Rect) Extent(dim int) float64 { return r.Max[dim] - r.Min[dim] }

// String renders the rectangle as [min,max] x [min,max] x ...
func (r Rect) String() string {
	var b strings.Builder
	for j := range r.Min {
		if j > 0 {
			b.WriteString(" x ")
		}
		fmt.Fprintf(&b, "[%g,%g]", r.Min[j], r.Max[j])
	}
	return b.String()
}
