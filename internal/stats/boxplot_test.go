package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxPlotEmpty(t *testing.T) {
	if _, err := NewBoxPlot(nil); err != ErrEmpty {
		t.Errorf("NewBoxPlot(nil) err = %v, want ErrEmpty", err)
	}
}

func TestBoxPlotNoOutliers(t *testing.T) {
	bp, err := NewBoxPlot([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	if bp.Median != 5 {
		t.Errorf("Median = %v, want 5", bp.Median)
	}
	if bp.Q1 != 3 || bp.Q3 != 7 {
		t.Errorf("Q1,Q3 = %v,%v; want 3,7", bp.Q1, bp.Q3)
	}
	if bp.Min != 1 || bp.Max != 9 {
		t.Errorf("whiskers = %v,%v; want 1,9", bp.Min, bp.Max)
	}
	if len(bp.Outliers) != 0 {
		t.Errorf("Outliers = %v, want none", bp.Outliers)
	}
}

func TestBoxPlotDetectsOutliers(t *testing.T) {
	// 100 is far outside q3 + 1.5*IQR for this sample.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	bp, err := NewBoxPlot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Outliers) != 1 || bp.Outliers[0] != 100 {
		t.Errorf("Outliers = %v, want [100]", bp.Outliers)
	}
	if bp.Max == 100 {
		t.Error("upper whisker should exclude the outlier")
	}
}

func TestBoxPlotConstantSample(t *testing.T) {
	bp, err := NewBoxPlot([]float64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if bp.Min != 5 || bp.Q1 != 5 || bp.Median != 5 || bp.Q3 != 5 || bp.Max != 5 {
		t.Errorf("constant sample summary = %+v, want all 5", bp)
	}
	if len(bp.Outliers) != 0 {
		t.Errorf("constant sample should have no outliers, got %v", bp.Outliers)
	}
}

// Property: Min ≤ Q1 ≤ Median ≤ Q3 ≤ Max and whiskers within fences.
func TestBoxPlotOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint8) bool {
		xs := make([]float64, int(n)+1)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		bp, err := NewBoxPlot(xs)
		if err != nil {
			return false
		}
		if !(bp.Min <= bp.Q1 && bp.Q1 <= bp.Median && bp.Median <= bp.Q3 && bp.Q3 <= bp.Max) {
			return false
		}
		iqr := bp.Q3 - bp.Q1
		for _, o := range bp.Outliers {
			if o >= bp.Q1-1.5*iqr && o <= bp.Q3+1.5*iqr {
				return false // an "outlier" inside the fences
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
