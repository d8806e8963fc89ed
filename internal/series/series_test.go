package series

import (
	"testing"
	"time"

	"kairos/internal/floats"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

func TestConstantAndAccessors(t *testing.T) {
	s := Constant(t0, 5*time.Minute, 288, 1.5)
	if s.Len() != 288 {
		t.Fatalf("Len = %d, want 288", s.Len())
	}
	if s.Mean() != 1.5 || s.Max() != 1.5 || s.Min() != 1.5 {
		t.Errorf("constant series stats wrong: mean=%v max=%v min=%v", s.Mean(), s.Max(), s.Min())
	}
	if got := s.TimeAt(12); !got.Equal(t0.Add(time.Hour)) {
		t.Errorf("TimeAt(12) = %v, want %v", got, t0.Add(time.Hour))
	}
}

func TestFromFunc(t *testing.T) {
	s := FromFunc(t0, time.Minute, 4, func(_ time.Time, i int) float64 { return float64(i * i) })
	want := []float64{0, 1, 4, 9}
	for i, v := range want {
		if !floats.Same(s.Values[i], v) {
			t.Errorf("Values[%d] = %v, want %v", i, s.Values[i], v)
		}
	}
}

func TestAddAndMismatch(t *testing.T) {
	a := Constant(t0, time.Minute, 3, 1)
	b := Constant(t0, time.Minute, 3, 2)
	c, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c.Values {
		if v != 3 {
			t.Errorf("Add values = %v, want 3s", c.Values)
			break
		}
	}
	// a must be unchanged (Add is not in place).
	if a.Values[0] != 1 {
		t.Error("Add mutated its receiver")
	}
	short := Constant(t0, time.Minute, 2, 1)
	if _, err := a.Add(short); err != ErrMismatch {
		t.Errorf("Add length mismatch err = %v, want ErrMismatch", err)
	}
	otherStep := Constant(t0, time.Second, 3, 1)
	if _, err := a.Add(otherStep); err != ErrMismatch {
		t.Errorf("Add step mismatch err = %v, want ErrMismatch", err)
	}
	if err := a.AddInPlace(b); err != nil || a.Values[0] != 3 {
		t.Errorf("AddInPlace failed: %v, values %v", err, a.Values)
	}
	if err := a.AddInPlace(short); err != ErrMismatch {
		t.Error("AddInPlace mismatch should error")
	}
}

func TestScaleShiftClamp(t *testing.T) {
	s := New(t0, time.Minute, []float64{-1, 0, 2})
	if got := s.Scale(2).Values; got[0] != -2 || got[2] != 4 {
		t.Errorf("Scale = %v", got)
	}
	if got := s.Shift(1).Values; got[0] != 0 || got[2] != 3 {
		t.Errorf("Shift = %v", got)
	}
	if got := s.Clamp(0, 1).Values; got[0] != 0 || got[1] != 0 || got[2] != 1 {
		t.Errorf("Clamp = %v", got)
	}
	if s.Values[0] != -1 {
		t.Error("Scale/Shift/Clamp must not mutate the receiver")
	}
}

func TestEmptySeriesStats(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Error("empty series stats should be 0")
	}
}

func TestSum(t *testing.T) {
	a := New(t0, time.Minute, []float64{1, 5, 2})
	b := New(t0, time.Minute, []float64{2, 1, 2})
	sum, err := Sum([]*Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Values[0] != 3 || sum.Values[1] != 6 || sum.Values[2] != 4 {
		t.Errorf("Sum = %v", sum.Values)
	}
	empty, err := Sum(nil)
	if err != nil || empty.Len() != 0 {
		t.Error("Sum(nil) should be an empty series")
	}
	if _, err := Sum([]*Series{a, Constant(t0, time.Second, 3, 0)}); err == nil {
		t.Error("Sum with mismatched shapes should error")
	}
}

func TestSlice(t *testing.T) {
	s := New(t0, time.Minute, []float64{0, 1, 2, 3, 4})
	sub, err := s.Slice(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 || sub.Values[0] != 1 || sub.Values[2] != 3 {
		t.Errorf("Slice = %v", sub.Values)
	}
	if !sub.Start.Equal(t0.Add(time.Minute)) {
		t.Errorf("Slice start = %v", sub.Start)
	}
	// The slice must be independent of the source.
	sub.Values[0] = 99
	if s.Values[1] == 99 {
		t.Error("Slice shares backing array with source")
	}
	if _, err := s.Slice(-1, 2); err == nil {
		t.Error("negative from should error")
	}
	if _, err := s.Slice(3, 2); err == nil {
		t.Error("from > to should error")
	}
	if _, err := s.Slice(0, 6); err == nil {
		t.Error("to out of range should error")
	}
}

func TestString(t *testing.T) {
	s := Constant(t0, time.Minute, 2, 1)
	if s.String() == "" {
		t.Error("String should not be empty")
	}
}
