package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestContains(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 5})
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 2}, true},
		{Point{0, 0}, true},  // lower boundary is closed
		{Point{10, 5}, true}, // upper boundary is closed
		{Point{10.1, 5}, false},
		{Point{-0.1, 2}, false},
		{Point{5, 5.0001}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestContainsRect(t *testing.T) {
	outer := NewRect(Point{0, 0}, Point{10, 10})
	if !outer.ContainsRect(NewRect(Point{1, 1}, Point{9, 9})) {
		t.Error("inner rect should be contained")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect should contain itself")
	}
	if outer.ContainsRect(NewRect(Point{1, 1}, Point{11, 9})) {
		t.Error("overflowing rect should not be contained")
	}
}

func TestIntersects(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{5, 5})
	b := NewRect(Point{5, 5}, Point{9, 9}) // touch at a corner
	if !a.Intersects(b) {
		t.Error("touching rectangles intersect (closed intervals)")
	}
	c := NewRect(Point{5.001, 0}, Point{9, 9})
	if a.Intersects(c) {
		t.Error("disjoint rectangles must not intersect")
	}
}

func TestIntersection(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{6, 6})
	b := NewRect(Point{3, -1}, Point{9, 4})
	got, ok := a.Intersection(b)
	if !ok {
		t.Fatal("expected intersection")
	}
	want := NewRect(Point{3, 0}, Point{6, 4})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Intersection = %v, want %v", got, want)
	}
	if _, ok := a.Intersection(NewRect(Point{7, 7}, Point{8, 8})); ok {
		t.Error("disjoint rectangles should report no intersection")
	}
}

func TestSplitAtRoutesEveryPointExactlyOnce(t *testing.T) {
	r := NewRect(Point{0}, Point{10})
	left, right := r.SplitAt(0, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := Point{rng.Float64() * 10}
		inLeft := left.Contains(p)
		inRight := right.Contains(p)
		if inLeft == inRight {
			t.Fatalf("point %v in left=%v right=%v; must be exactly one", p, inLeft, inRight)
		}
	}
	// The split coordinate itself goes left.
	if !left.Contains(Point{4}) || right.Contains(Point{4}) {
		t.Error("boundary point must route to the left half")
	}
}

func TestUniverseContainsEverything(t *testing.T) {
	u := Universe(3)
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		return u.Contains(Point{a, b, c})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectionSymmetricProperty(t *testing.T) {
	f := func(a0, a1, b0, b1 float64) bool {
		if math.IsNaN(a0) || math.IsNaN(a1) || math.IsNaN(b0) || math.IsNaN(b1) {
			return true
		}
		a := Rect{Min: Point{math.Min(a0, a1)}, Max: Point{math.Max(a0, a1)}}
		b := Rect{Min: Point{math.Min(b0, b1)}, Max: Point{math.Max(b0, b1)}}
		return a.Intersects(b) == b.Intersects(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRectPanicsOnInvertedInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on inverted interval")
		}
	}()
	NewRect(Point{5}, Point{4})
}

func TestPointRectAndString(t *testing.T) {
	p := Point{1, 2}
	r := PointRect(p)
	if !r.Contains(p) {
		t.Error("PointRect must contain its point")
	}
	if r.String() != "[1,1] x [2,2]" {
		t.Errorf("String = %q", r.String())
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := NewRect(Point{0}, Point{1})
	c := r.Clone()
	c.Min[0] = -5
	if r.Min[0] != 0 {
		t.Error("Clone must not share backing arrays")
	}
}
