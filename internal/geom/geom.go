// Package geom provides the planar geometry primitives used by layouts of
// communication graphs and clock trees: points, polyline wire paths,
// rectangles, and area accounting.
//
// The unit of length is one cell pitch: per assumption A2 of the paper a
// cell occupies unit area, and per A3 a wire has unit width. Wire delay is
// treated as proportional to wire length (Section II: "we choose to treat
// them together as a 'distance' metric").
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane, in cell-pitch units.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k about the origin.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// ManhattanDist returns the L1 distance between p and q. Wires in VLSI
// layouts are rectilinear, so Manhattan distance is the natural wire-length
// metric for point-to-point routes.
func (p Point) ManhattanDist(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

// Eq reports whether p and q coincide to within tol.
func (p Point) Eq(q Point, tol float64) bool {
	return math.Abs(p.X-q.X) <= tol && math.Abs(p.Y-q.Y) <= tol
}

// Path is a polyline wire route through the plane. A nil or single-point
// Path has zero length.
type Path []Point

// Length returns the total polyline length of the path.
func (p Path) Length() float64 {
	var sum float64
	for i := 1; i < len(p); i++ {
		sum += p[i].Dist(p[i-1])
	}
	return sum
}

// ManhattanLength returns the total L1 length of the path's segments.
func (p Path) ManhattanLength() float64 {
	var sum float64
	for i := 1; i < len(p); i++ {
		sum += p[i].ManhattanDist(p[i-1])
	}
	return sum
}

// Start returns the first point of the path; it panics on an empty path.
func (p Path) Start() Point { return p[0] }

// End returns the last point of the path; it panics on an empty path.
func (p Path) End() Point { return p[len(p)-1] }

// Reverse returns a copy of p traversed end-to-start.
func (p Path) Reverse() Path {
	out := make(Path, len(p))
	for i, pt := range p {
		out[len(p)-1-i] = pt
	}
	return out
}

// Concat joins p and q into a single path. If p's end coincides with q's
// start (within 1e-9) the duplicate joint point is dropped.
func (p Path) Concat(q Path) Path {
	if len(p) == 0 {
		return append(Path(nil), q...)
	}
	if len(q) == 0 {
		return append(Path(nil), p...)
	}
	out := make(Path, 0, len(p)+len(q))
	out = append(out, p...)
	if p.End().Eq(q.Start(), 1e-9) {
		out = append(out, q[1:]...)
	} else {
		out = append(out, q...)
	}
	return out
}

// At returns the point at arc-length distance d along the path, clamped to
// the path's endpoints.
func (p Path) At(d float64) Point {
	if len(p) == 0 {
		return Point{}
	}
	if d <= 0 {
		return p[0]
	}
	for i := 1; i < len(p); i++ {
		seg := p[i].Dist(p[i-1])
		if d <= seg && seg > 0 {
			t := d / seg
			return Point{
				X: p[i-1].X + t*(p[i].X-p[i-1].X),
				Y: p[i-1].Y + t*(p[i].Y-p[i-1].Y),
			}
		}
		d -= seg
	}
	return p[len(p)-1]
}

// Split cuts the path at arc length d and returns the two halves. Both
// halves share the cut point. d is clamped to [0, Length].
func (p Path) Split(d float64) (Path, Path) {
	if len(p) == 0 {
		return nil, nil
	}
	if d <= 0 {
		return Path{p[0]}, append(Path(nil), p...)
	}
	for i := 1; i < len(p); i++ {
		seg := p[i].Dist(p[i-1])
		if d < seg {
			cut := p.At(p[:i+1].Length() - seg + d)
			// Rebuild explicitly to keep both halves simple polylines.
			first := append(append(Path(nil), p[:i]...), cut)
			second := append(Path{cut}, p[i:]...)
			return first, second
		}
		d -= seg
	}
	return append(Path(nil), p...), Path{p[len(p)-1]}
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right; a Rect with Max.X < Min.X is treated as empty.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns a rectangle that behaves as the identity for Union.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.Max.X < r.Min.X || r.Max.Y < r.Min.Y }

// Width returns the horizontal extent of r (0 if empty).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the vertical extent of r (0 if empty).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// AspectRatio returns max(w,h)/min(w,h), or +Inf for degenerate rectangles.
// The paper's Theorem 2 applies to layouts of bounded aspect ratio.
func (r Rect) AspectRatio() float64 {
	w, h := r.Width(), r.Height()
	lo, hi := math.Min(w, h), math.Max(w, h)
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Expand returns r grown by margin on every side.
func (r Rect) Expand(margin float64) Rect {
	if r.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{r.Min.X - margin, r.Min.Y - margin},
		Max: Point{r.Max.X + margin, r.Max.Y + margin},
	}
}

// BoundingRect returns the smallest rectangle containing all the points.
func BoundingRect(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.Union(Rect{Min: p, Max: p})
	}
	return r
}

// BoundingRectOfPaths returns the smallest rectangle containing every
// vertex of every path.
func BoundingRectOfPaths(paths []Path) Rect {
	r := EmptyRect()
	for _, p := range paths {
		for _, pt := range p {
			r = r.Union(Rect{Min: pt, Max: pt})
		}
	}
	return r
}

// Rectilinear returns an L-shaped Manhattan route from a to b, turning at
// the corner (b.X, a.Y). For a == b it returns the single point.
func Rectilinear(a, b Point) Path { return AppendRectilinear(nil, a, b) }

// AppendRectilinear appends the points of Rectilinear(a, b) — one, two
// or three of them — to dst and returns the extended path, so builders
// can lay many routes into one shared buffer.
func AppendRectilinear(dst Path, a, b Point) Path {
	if a.Eq(b, 0) {
		return append(dst, a)
	}
	corner := Point{b.X, a.Y}
	if corner.Eq(a, 0) || corner.Eq(b, 0) {
		return append(dst, a, b)
	}
	return append(dst, a, corner, b)
}
