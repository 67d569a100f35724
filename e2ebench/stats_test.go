package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileSupportRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly ten samples beyond
		{999, 0.99, 990, false}, // nine beyond: unresolved
		{100, 0.99, 99, false},  // one beyond
		{20, 0.50, 10, true},    // ten beyond the median
		{19, 0.50, 10, false},   // nine beyond
		{200, 0.90, 180, true},  // twenty beyond
		{100, 0.90, 90, true},   // ten beyond
		{99, 0.90, 90, false},   // nine beyond
		{0, 0.50, 0, false},     // empty
		{5, 0.0, 1, false},      // rank clamps to the first sample
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = (%g, %v), want (%g, %v)", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles(seq(10))
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %g %g %g", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Fatalf("quartiles(3,1,2) = %g %g %g", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{7})
	if q1 != 7 || med != 7 || q3 != 7 {
		t.Fatalf("quartiles(7) = %g %g %g", q1, med, q3)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	span := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		{"overlapping", []interval{{10, 30}, {20, 50}}, 60},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"unsorted overlapping", []interval{{50, 70}, {10, 30}, {25, 55}}, 40},
		{"clipped at both ends", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside", []interval{{100, 120}, {-5, 0}}, 100},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"covers all", []interval{{-1, 101}, {40, 60}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCompletingSecondJoin(t *testing.T) {
	// 4 s windows at a 1 s hop: window k completes with admitted second k+3.
	if s, ok := completingSecond(0, 1, 4, nil); !ok || s != 3 {
		t.Fatalf("first window: (%d, %v), want (3, true)", s, ok)
	}
	if s, ok := completingSecond(57, 1, 4, nil); !ok || s != 60 {
		t.Fatalf("ungated: (%d, %v), want (60, true)", s, ok)
	}
	// A gated patient's admitted stream skips suppressed seconds: the
	// alarm clock runs on admitted positions, the due clock on
	// generator seconds.
	admitted := []int32{0, 1, 2, 3, 10, 11, 40, 41, 42}
	if s, ok := completingSecond(0, 1, 4, admitted); !ok || s != 3 {
		t.Fatalf("gated first window: (%d, %v), want (3, true)", s, ok)
	}
	if s, ok := completingSecond(3, 1, 4, admitted); !ok || s != 40 {
		t.Fatalf("gated window 3: (%d, %v), want (40, true)", s, ok)
	}
	if s, ok := completingSecond(5, 1, 4, admitted); !ok || s != 42 {
		t.Fatalf("gated window 5: (%d, %v), want (42, true)", s, ok)
	}
	if _, ok := completingSecond(6, 1, 4, admitted); ok {
		t.Fatal("window beyond the admitted stream joined")
	}
	// Float stream times round to the nearest window.
	if s, ok := completingSecond(2.9999999, 1, 4, nil); !ok || s != 6 {
		t.Fatalf("rounding: (%d, %v), want (6, true)", s, ok)
	}
}

func TestLedgerFailedFrac(t *testing.T) {
	var l ledger
	if l.frac() != 0 {
		t.Fatal("empty ledger must read 0")
	}
	l.ops(96)
	l.check(true, "windows")
	l.check(true, "alarms")
	l.check(false, "alarms")
	l.fail("dropped events", 0) // zero failures record nothing
	l.fail("batches shed", 1)
	if l.attempted != 99 || l.failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 99 and 2", l.attempted, l.failed)
	}
	if got, want := l.frac(), 2.0/99; math.Abs(got-want) > 1e-15 {
		t.Fatalf("frac = %g, want %g", got, want)
	}
	if l.reasons["alarms"] != 1 || l.reasons["batches shed"] != 1 || len(l.reasons) != 2 {
		t.Fatalf("reasons = %v", l.reasons)
	}
}

func TestSlope(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	if got := slope(xs, []float64{1, 3, 5, 7}); got != 2 {
		t.Fatalf("slope = %g, want 2", got)
	}
	if got := slope([]float64{1}, []float64{5}); got != 0 {
		t.Fatalf("single point slope = %g", got)
	}
}

func TestSlicedPercentileShrugsOffOneStall(t *testing.T) {
	if got := minSamples(0.99); got != 1000 {
		t.Fatalf("minSamples(0.99) = %d, want 1000", got)
	}
	if got := minSamples(0.50); got != 20 {
		t.Fatalf("minSamples(0.50) = %d, want 20", got)
	}
	// 4000 samples of 1..1000 repeated; the second quarter stalls at 1e6.
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = float64(i%1000 + 1)
		if i >= 1000 && i < 2000 {
			xs[i] = 1e6
		}
	}
	v, k, ok := slicedPercentile(xs, 0.99, 4)
	if !ok || k != 4 {
		t.Fatalf("slices = %d, ok %v", k, ok)
	}
	if v != 990 {
		t.Fatalf("sliced p99 = %g, want 990 (median of 990, 990, 990, 1e6)", v)
	}
	// Fewer samples than k slices can support: fewer, larger slices.
	if _, k, ok := slicedPercentile(xs[:2500], 0.99, 4); !ok || k != 2 {
		t.Fatalf("2500 samples: %d slices, ok %v; want 2, true", k, ok)
	}
	if _, _, ok := slicedPercentile(xs[:999], 0.99, 4); ok {
		t.Fatal("999 samples must not support a p99")
	}
}
