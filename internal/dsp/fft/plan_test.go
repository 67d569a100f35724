package fft

import (
	"math"
	"math/rand"
	"testing"
)

func TestPlanMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 8, 64, 256, 1024} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		if p.Len() != n {
			t.Fatalf("Len() = %d, want %d", p.Len(), n)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := append([]complex128(nil), x...)
		if err := Forward(want); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), x...)
		if err := p.Forward(got); err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if d := cAbs(got[k] - want[k]); d > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: plan %v vs Forward %v (|Δ|=%g)", n, k, got[k], want[k], d)
			}
		}
	}
}

func TestPlanRejectsBadLength(t *testing.T) {
	if _, err := NewPlan(12); err == nil {
		t.Fatal("NewPlan(12) should fail")
	}
	p, err := NewPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Forward(make([]complex128, 4)); err == nil {
		t.Fatal("Forward with wrong length should fail")
	}
}

func TestRealPlanPowerSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 8, 128, 512, 1024} {
		rp, err := NewRealPlan(n)
		if err != nil {
			t.Fatalf("NewRealPlan(%d): %v", n, err)
		}
		if rp.Len() != n || rp.NumBins() != n/2+1 {
			t.Fatalf("n=%d: Len=%d NumBins=%d", n, rp.Len(), rp.NumBins())
		}
		// Full length and, for the larger plans, an odd zero-padded
		// length; the taper and scale are checked against the complex
		// transform of the explicitly tapered, padded signal.
		for _, sig := range []int{n, n - 3} {
			if sig < 1 {
				continue
			}
			xs := make([]float64, sig)
			taper := make([]float64, sig)
			full := make([]complex128, n)
			for i := range xs {
				xs[i] = rng.NormFloat64()
				taper[i] = 0.5 + rng.Float64()
				full[i] = complex(xs[i]*taper[i], 0)
			}
			if err := Forward(full); err != nil {
				t.Fatal(err)
			}
			const scale = 0.25
			dst := make([]float64, n/2+1)
			got, err := rp.OneSidedPowerInto(dst, xs, taper, scale)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n/2+1 {
				t.Fatalf("n=%d: got %d bins", n, len(got))
			}
			for k := 0; k <= n/2; k++ {
				want := (real(full[k])*real(full[k]) + imag(full[k])*imag(full[k])) * scale
				if k != 0 && k != n/2 {
					want *= 2
				}
				if d := math.Abs(got[k] - want); d > 1e-8*(1+want)*float64(n) {
					t.Fatalf("n=%d len=%d bin %d: got %g want %g", n, sig, k, got[k], want)
				}
			}
		}
	}
}

func TestRealPlanRejectsBadLength(t *testing.T) {
	if _, err := NewRealPlan(6); err == nil {
		t.Fatal("NewRealPlan(6) should fail")
	}
	if _, err := NewRealPlan(1); err == nil {
		t.Fatal("NewRealPlan(1) should fail")
	}
	rp, err := NewRealPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.OneSidedPowerInto(make([]float64, 5), make([]float64, 9), make([]float64, 9), 1); err == nil {
		t.Fatal("OneSidedPowerInto with a signal longer than the plan should fail")
	}
	if _, err := rp.OneSidedPowerInto(make([]float64, 5), make([]float64, 8), make([]float64, 7), 1); err == nil {
		t.Fatal("OneSidedPowerInto with a short taper should fail")
	}
}

func cAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

func BenchmarkPlanForward1024(b *testing.B) {
	p, _ := NewPlan(1024)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%17), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Forward(x)
	}
}

func BenchmarkRealPlanPower1024(b *testing.B) {
	rp, _ := NewRealPlan(1024)
	xs := make([]float64, 1024)
	taper := make([]float64, 1024)
	for i := range xs {
		xs[i] = float64(i % 17)
		taper[i] = 1
	}
	dst := make([]float64, rp.NumBins())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = rp.OneSidedPowerInto(dst, xs, taper, 1)
	}
}
