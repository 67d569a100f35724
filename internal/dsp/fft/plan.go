package fft

import (
	"fmt"
	"math/cmplx"
)

// Plan owns the precomputed tables of a fixed-size transform: the
// bit-reversal permutation and one twiddle factor per butterfly stage
// position. The generic Forward recomputes every twiddle with a serial
// complex multiplication (w *= wStep), which chains a 6-flop dependency
// through every butterfly; table lookups break that chain and halve the
// multiply count, which is where the streaming feature extractor spends
// most of its FFT time. A Plan is immutable after construction and safe
// for concurrent use.
type Plan struct {
	n   int
	rev []int32      // bit-reversal permutation
	tw  []complex128 // stage twiddles: size 2, 4, ..., n concatenated
}

// NewPlan builds transform tables for length n (a power of two).
func NewPlan(n int) (*Plan, error) {
	if !IsPow2(n) {
		return nil, ErrNotPow2
	}
	p := &Plan{n: n, rev: make([]int32, n)}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		p.rev[i] = int32(j)
	}
	p.tw = make([]complex128, 0, n-1)
	for size := 2; size <= n; size <<= 1 {
		ang := -2 * pi / float64(size)
		for k := 0; k < size/2; k++ {
			p.tw = append(p.tw, cmplx.Rect(1, ang*float64(k)))
		}
	}
	return p, nil
}

// Len returns the transform length the plan was built for.
func (p *Plan) Len() int { return p.n }

// Forward computes the in-place forward DFT of x, which must be exactly
// the planned length. It allocates nothing.
//
//selflearn:hotpath
func (p *Plan) Forward(x []complex128) error {
	n := p.n
	if len(x) != n {
		return fmt.Errorf("fft: plan sized for %d points, got %d", n, len(x))
	}
	rev := p.rev
	for i := 1; i < n; i++ {
		j := int(rev[i])
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.butterflies(x)
	return nil
}

// butterflies runs the stage loop over already bit-reversed data. The
// first two stages use only the trivial twiddles 1 and −i, so they are
// folded into one radix-4-style pass with no multiplies; later stages
// special-case k = 0 (twiddle exactly 1) and read the rest from the
// table.
//
//selflearn:hotpath
func (p *Plan) butterflies(x []complex128) {
	n := p.n
	if n >= 4 {
		for s := 0; s+4 <= n; s += 4 {
			q := x[s : s+4 : s+4]
			a, b, c, d := q[0], q[1], q[2], q[3]
			s0, d0 := a+b, a-b
			s1, d1 := c+d, c-d
			// twiddle −i on the odd lane of the size-4 stage
			t1 := complex(imag(d1), -real(d1))
			q[0] = s0 + s1
			q[2] = s0 - s1
			q[1] = d0 + t1
			q[3] = d0 - t1
		}
	} else if n == 2 {
		a, b := x[0], x[1]
		x[0], x[1] = a+b, a-b
	}
	tw := p.tw
	off := 3 // skip the size-2 and size-4 twiddle rows (1 + 2 entries)
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		stage := tw[off : off+half]
		for start := 0; start < n; start += size {
			a := x[start : start+half : start+half]
			b := x[start+half : start+size : start+size]
			// k = 0: twiddle is exactly 1
			t := b[0]
			u := a[0]
			a[0] = u + t
			b[0] = u - t
			for k := 1; k < half; k++ {
				t := b[k] * stage[k]
				u := a[k]
				a[k] = u + t
				b[k] = u - t
			}
		}
		off += half
	}
}

const pi = 3.141592653589793

// RealPlan computes one-sided periodograms of real signals zero-padded
// to a fixed power-of-two length n: the real input is packed into an
// n/2-point complex transform and unpacked with one twiddle rotation per
// bin — a little over twice as fast as running the full complex
// transform on zero imaginary parts. The taper multiply and the zero
// padding ride along with the bit-reversed pack, and the scaling and
// negative-frequency fold with the unpack, so the signal is touched
// once on the way in and the bins once on the way out. A RealPlan owns
// a scratch buffer and is NOT safe for concurrent use; give each
// workspace its own.
type RealPlan struct {
	n    int
	half *Plan
	w    []complex128 // e^{-2πik/n}, k = 0..n/4
	z    []complex128 // packed half-length buffer
}

// NewRealPlan builds a real-input plan for length n (a power of two,
// at least 2).
func NewRealPlan(n int) (*RealPlan, error) {
	if !IsPow2(n) || n < 2 {
		return nil, ErrNotPow2
	}
	half, err := NewPlan(n / 2)
	if err != nil {
		return nil, err
	}
	p := &RealPlan{n: n, half: half, z: make([]complex128, n/2)}
	p.w = make([]complex128, n/4+1)
	ang := -2 * pi / float64(n)
	for k := range p.w {
		p.w[k] = cmplx.Rect(1, ang*float64(k))
	}
	return p, nil
}

// Len returns the real signal length the plan was built for.
func (p *RealPlan) Len() int { return p.n }

// NumBins returns the number of one-sided spectrum bins (n/2 + 1).
func (p *RealPlan) NumBins() int { return p.n/2 + 1 }

// OneSidedPowerInto writes the scaled one-sided power spectrum of the
// tapered signal xs[i]·taper[i], zero-padded to the planned length,
// into dst and returns dst[:n/2+1]: dst[k] = |X[k]|²·scale for the DC
// and Nyquist bins and (|X[k]|²·scale)·2 for the bins between, whose
// negative-frequency twins fold in. len(taper) must equal len(xs),
// which may not exceed the planned length; cap(dst) must be at least
// n/2+1. It allocates nothing.
//
//selflearn:hotpath
func (p *RealPlan) OneSidedPowerInto(dst, xs, taper []float64, scale float64) ([]float64, error) {
	n := p.n
	if len(xs) > n || len(taper) != len(xs) {
		return nil, fmt.Errorf("fft: real plan sized for %d points, got %d samples and %d taper coefficients", n, len(xs), len(taper))
	}
	m := n / 2
	z := p.z
	// Pack tapered sample pairs straight into bit-reversed positions, so
	// the transform skips its permutation pass entirely; pairs past the
	// signal are the zero padding.
	rev := p.half.rev[:m]
	pairs := len(xs) / 2
	for i := 0; i < pairs; i++ {
		j := 2 * i
		z[rev[i]] = complex(xs[j]*taper[j], xs[j+1]*taper[j+1])
	}
	i := pairs
	if len(xs)%2 == 1 {
		j := len(xs) - 1
		z[rev[i]] = complex(xs[j]*taper[j], 0)
		i++
	}
	for ; i < m; i++ {
		z[rev[i]] = 0
	}
	p.half.butterflies(z)
	dst = dst[:m+1]
	// DC and Nyquist bins are real-valued combinations of Z[0].
	re0, im0 := real(z[0]), imag(z[0])
	dc := re0 + im0
	ny := re0 - im0
	dst[0] = dc * dc * scale
	dst[m] = ny * ny * scale
	// Unpack X[k] = E[k] + w[k]·O[k] with E[k] = (Z[k]+conj(Z[m−k]))/2,
	// O[k] = (Z[k]−conj(Z[m−k]))/(2i). The twiddle table covers k ≤ n/4;
	// the mirror bin m−k reuses w[k] via the conjugate-symmetry of the
	// unpack, so each loop iteration finishes two bins.
	for k := 1; k <= m/2; k++ {
		zk, zmk := z[k], z[m-k]
		erE := 0.5 * (real(zk) + real(zmk))
		eiE := 0.5 * (imag(zk) - imag(zmk))
		orE := 0.5 * (imag(zk) + imag(zmk))
		oiE := 0.5 * (real(zmk) - real(zk))
		wr, wi := real(p.w[k]), imag(p.w[k])
		// X[k] = E + w·O
		tr := wr*orE - wi*oiE
		ti := wr*oiE + wi*orE
		xr := erE + tr
		xi := eiE + ti
		dst[k] = (xr*xr + xi*xi) * scale * 2
		if k != m-k {
			// With E' = (Z[m−k]+conj(Z[k]))/2 = conj(E),
			// O' = (Z[m−k]−conj(Z[k]))/(2i) = conj(O) and
			// w[m−k] = −conj(w[k]): X[m−k] = conj(E − w·O).
			yr := erE - tr
			yi := -eiE + ti
			dst[m-k] = (yr*yr + yi*yi) * scale * 2
		}
	}
	return dst, nil
}
