package defect

import (
	"reflect"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 0.05)
	b := New(42, 0.05)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different maps")
	}
	c := New(43, 0.05)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical maps (suspicious)")
	}
}

func TestRateZeroAndOne(t *testing.T) {
	clean := New(7, 0)
	if n := clean.Counts().Total(); n != 0 {
		t.Fatalf("rate 0 produced %d defects", n)
	}
	dead := New(7, 1)
	c := dead.Counts()
	if c.Stuck != DefaultGrid*DefaultGrid || c.Via != DefaultGrid*DefaultGrid {
		t.Fatalf("rate 1 left clean tiles: %+v", c)
	}
}

func TestRateApproximate(t *testing.T) {
	// Over a large grid the realized stuck-site rate should be close to
	// the requested rate.
	m := NewGrid(3, 0.10, 128, 128)
	c := m.Counts()
	got := float64(c.Stuck) / float64(m.W*m.H)
	if got < 0.07 || got > 0.13 {
		t.Fatalf("stuck rate %.3f far from requested 0.10", got)
	}
	// Dead tracks are drawn at rate/2.
	gotH := float64(c.DeadH) / float64(m.W*m.H)
	if gotH < 0.03 || gotH > 0.07 {
		t.Fatalf("dead-H rate %.3f far from requested 0.05", gotH)
	}
}

func TestTileClamping(t *testing.T) {
	m := New(9, 0.5)
	// Boundary and out-of-range queries must not panic and must land in
	// edge tiles.
	for _, xy := range [][2]float64{{0, 0}, {1, 1}, {-0.1, 0.5}, {0.5, 1.2}, {0.999, 0.999}} {
		m.Stuck(xy[0], xy[1])
		m.DeadTrack(true, xy[0], xy[1])
		m.DeadTrack(false, xy[0], xy[1])
		m.ViaFault(xy[0], xy[1])
	}
	if m.tile(1, 1) != m.W*m.H-1 {
		t.Fatalf("tile(1,1) = %d, want last tile %d", m.tile(1, 1), m.W*m.H-1)
	}
}

func TestNilMapIsClean(t *testing.T) {
	var m *Map
	if m.Stuck(0.5, 0.5) || m.DeadTrack(true, 0.5, 0.5) || m.ViaFault(0.5, 0.5) {
		t.Fatal("nil map reported defects")
	}
	if m.Counts().Total() != 0 {
		t.Fatal("nil map has nonzero counts")
	}
	if m.String() == "" {
		t.Fatal("nil map String empty")
	}
}
