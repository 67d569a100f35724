package spectrum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"selflearn/internal/dsp/fft"
	"selflearn/internal/dsp/window"
)

// TestPeriodogramIntoMatchesPeriodogram reuses one workspace across
// many windows and demands bit-identical PSDs versus the one-shot
// estimator.
func TestPeriodogramIntoMatchesPeriodogram(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, fs = 512, 128.0
	ws, err := NewWorkspace(n, fs, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	var dst PSD
	for trial := 0; trial < 20; trial++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		want, err := Periodogram(xs, fs, window.Hann)
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.PeriodogramInto(&dst, xs); err != nil {
			t.Fatal(err)
		}
		if dst.BinWidth != want.BinWidth {
			t.Fatalf("trial %d: BinWidth %g vs %g", trial, dst.BinWidth, want.BinWidth)
		}
		if len(dst.Power) != len(want.Power) {
			t.Fatalf("trial %d: %d bins vs %d", trial, len(dst.Power), len(want.Power))
		}
		for k := range want.Power {
			if dst.Power[k] != want.Power[k] {
				t.Fatalf("trial %d bin %d: %g vs %g", trial, k, dst.Power[k], want.Power[k])
			}
		}
		if dst.TotalPower() != want.TotalPower() {
			t.Fatalf("trial %d: TotalPower %g vs %g", trial, dst.TotalPower(), want.TotalPower())
		}
	}
	if err := ws.PeriodogramInto(&dst, make([]float64, n/2)); err == nil {
		t.Fatal("workspace accepted a wrong-length signal")
	}
}

// referencePeriodogram is the periodogram as separate plain passes:
// taper and zero-pad into a real buffer, pack sample pairs into a
// half-length complex transform, unpack each one-sided bin's |X[k]|²,
// then scale, fold the negative frequencies and integrate in bin order.
// The workspace fuses these passes; every bit must survive the fusion.
func referencePeriodogram(xs []float64, fs float64) (power []float64, total float64) {
	n := len(xs)
	nfft := fft.NextPow2(n)
	coeffs := window.Cached(window.Hann, n)
	wp := window.Power(window.Hann, n)
	if wp == 0 {
		wp = 1
	}
	scale := 1 / (fs * float64(n) * wp)
	rbuf := make([]float64, nfft)
	for i, v := range xs {
		rbuf[i] = v * coeffs[i]
	}
	power = make([]float64, nfft/2+1)
	if nfft == 1 {
		power[0] = rbuf[0] * rbuf[0]
	} else {
		m := nfft / 2
		z := make([]complex128, m)
		for i := range z {
			z[i] = complex(rbuf[2*i], rbuf[2*i+1])
		}
		plan, err := fft.NewPlan(m)
		if err != nil {
			panic(err)
		}
		if err := plan.Forward(z); err != nil {
			panic(err)
		}
		dc := real(z[0]) + imag(z[0])
		ny := real(z[0]) - imag(z[0])
		power[0], power[m] = dc*dc, ny*ny
		ang := -2 * math.Pi / float64(nfft)
		for k := 1; k <= m/2; k++ {
			zk, zmk := z[k], z[m-k]
			erE := 0.5 * (real(zk) + real(zmk))
			eiE := 0.5 * (imag(zk) - imag(zmk))
			orE := 0.5 * (imag(zk) + imag(zmk))
			oiE := 0.5 * (real(zmk) - real(zk))
			w := cmplx.Rect(1, ang*float64(k))
			tr := real(w)*orE - imag(w)*oiE
			ti := real(w)*oiE + imag(w)*orE
			xr, xi := erE+tr, eiE+ti
			power[k] = xr*xr + xi*xi
			if k != m-k {
				yr, yi := erE-tr, -eiE+ti
				power[m-k] = yr*yr + yi*yi
			}
		}
	}
	for k := range power {
		p := power[k] * scale
		if k != 0 && k != nfft/2 {
			p *= 2
		}
		power[k] = p
		total += p
	}
	return power, total * (fs / float64(nfft))
}

// TestPeriodogramIntoMatchesReference checks every PSD bin and the
// memoized TotalPower bitwise against the plain-pass reference, for a
// single sample, the smallest real transform, a zero-padded length and
// a power of two.
func TestPeriodogramIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const fs = 256.0
	for _, n := range []int{1, 2, 1000, 1024} {
		ws, err := NewWorkspace(n, fs, window.Hann)
		if err != nil {
			t.Fatal(err)
		}
		var dst PSD
		for trial := 0; trial < 5; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 40 * rng.NormFloat64()
			}
			if err := ws.PeriodogramInto(&dst, xs); err != nil {
				t.Fatal(err)
			}
			want, total := referencePeriodogram(xs, fs)
			if len(dst.Power) != len(want) {
				t.Fatalf("n=%d: %d bins, want %d", n, len(dst.Power), len(want))
			}
			for k := range want {
				if math.Float64bits(dst.Power[k]) != math.Float64bits(want[k]) {
					t.Fatalf("n=%d trial %d bin %d: %v, want %v", n, trial, k, dst.Power[k], want[k])
				}
			}
			if got := dst.TotalPower(); math.Float64bits(got) != math.Float64bits(total) {
				t.Fatalf("n=%d trial %d: TotalPower %v, want %v", n, trial, got, total)
			}
		}
	}
}

// TestTotalPowerMemoConsistency checks the construction-time memo
// against a by-hand integral and pins the two mutation paths: Welch
// invalidates after averaging, and Invalidate forces a recompute.
func TestTotalPowerMemoConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	p, err := Periodogram(xs, 256, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	manual := 0.0
	for _, v := range p.Power {
		manual += v
	}
	manual *= p.BinWidth
	if got := p.TotalPower(); got != manual {
		t.Fatalf("memoized TotalPower %g != recomputed %g", got, manual)
	}
	if got := p.RelativeBandPower(Theta); got != p.BandPower(Theta)/manual {
		t.Fatalf("RelativeBandPower uses a stale total: %g", got)
	}

	w, err := Welch(xs, 256, 256, window.Hann)
	if err != nil {
		t.Fatal(err)
	}
	manual = 0.0
	for _, v := range w.Power {
		manual += v
	}
	manual *= w.BinWidth
	if got := w.TotalPower(); got != manual {
		t.Fatalf("Welch TotalPower %g != recomputed %g (stale memo survived averaging?)", got, manual)
	}

	// Hand mutation + Invalidate must recompute.
	before := p.TotalPower()
	p.Power[3] *= 10
	p.Invalidate()
	if p.TotalPower() == before {
		t.Fatal("Invalidate did not drop the memoized total")
	}
}

func BenchmarkPeriodogram(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Periodogram(xs, 256, window.Hann); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workspace", func(b *testing.B) {
		ws, err := NewWorkspace(len(xs), 256, window.Hann)
		if err != nil {
			b.Fatal(err)
		}
		var dst PSD
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ws.PeriodogramInto(&dst, xs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
