package stats

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so Percentile must sort
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 50, 1},
		{2, 50, 1},
		{3, 50, 2},
		{4, 50, 2},
		{10, 95, 10},
		{20, 95, 19},
		{100, 95, 95},
		{101, 95, 96},
		{200, 95, 190},
		{200, 100, 200},
		{5, 1, 1},
	} {
		if got, _ := Percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("p%g of 1..%d = %g, want %g", c.p, c.n, got, c.want)
		}
	}
	if v, _ := Percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %g, want NaN", v)
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestTailNeedsTenSamplesAbove(t *testing.T) {
	if _, err := Tail(seq(199), 95); err == nil {
		t.Fatal("p95 of 199 samples has 9 above it and must be refused")
	}
	v, err := Tail(seq(200), 95)
	if err != nil || v != 190 {
		t.Fatalf("p95 of 200 samples = %g, %v; want 190 with 10 above", v, err)
	}
	if _, above := Percentile(seq(200), 95); above != 10 {
		t.Fatalf("above = %d, want 10", above)
	}
	if got := MinSamples(95); got != 200 {
		t.Fatalf("MinSamples(95) = %d, want 200", got)
	}
	if got := MinSamples(50); got != 20 {
		t.Fatalf("MinSamples(50) = %d, want 20", got)
	}
}
