package entropy

import (
	"fmt"
	"math"
	"slices"

	"selflearn/internal/stats"
)

// Workspace owns the reusable scratch of the entropy estimators: the
// ordinal-pattern tally of permutation entropy, the amplitude histogram
// behind Rényi/Shannon, and the sorted index buffer of the sample
// entropy fast path. All methods produce results bit-identical to the
// package-level functions while allocating nothing in steady state. The
// zero value is ready to use; a Workspace is not safe for concurrent
// use — give each streaming extractor its own.
type Workspace struct {
	keys  []uint64 // pattern tally: open-addressed codes, 0 = empty slot
	tally []int
	cs    []int
	hist  []int
	order []int32
}

// Permutation is the workspace form of the package-level Permutation.
//
//selflearn:hotpath
func (ws *Workspace) Permutation(xs []float64, n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("entropy: permutation order must be >= 2, got %d", n)
	}
	if n > 12 {
		return 0, fmt.Errorf("entropy: permutation order %d too large (max 12)", n)
	}
	if len(xs) < n {
		return 0, nil
	}
	total := len(xs) - n + 1
	// The tally is a linear-probing table at most half full: it holds
	// at most min(windows, n!) distinct patterns.
	distinct := total
	if f := factorial(n); f < distinct {
		distinct = f
	}
	bits := 2
	for 1<<bits < 2*distinct {
		bits++
	}
	size := 1 << bits
	if cap(ws.keys) < size {
		ws.keys = make([]uint64, size)
		ws.tally = make([]int, size)
	}
	keys, tally := ws.keys[:size], ws.tally[:size]
	clear(keys)
	var idx [12]int
	for start := 0; start < total; start++ {
		win := xs[start : start+n]
		for i := 0; i < n; i++ {
			idx[i] = i
		}
		// Stable insertion sort of the pattern indices by value (ties
		// keep temporal order): identical ordering to sort.SliceStable
		// without its closure and interface costs.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && win[idx[j]] < win[idx[j-1]]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		// Encode the permutation as a base-n integer (n <= 12 fits
		// easily). Only the identity of a pattern matters, and no
		// permutation of n >= 2 indices encodes to 0, the empty mark.
		var code uint64
		for _, v := range idx[:n] {
			code = code*uint64(n) + uint64(v)
		}
		slot := int((code * 0x9e3779b97f4a7c15) >> (64 - bits))
		for keys[slot] != code && keys[slot] != 0 {
			slot = (slot + 1) & (size - 1)
		}
		if keys[slot] == 0 {
			keys[slot], tally[slot] = code, 0
		}
		tally[slot]++
	}
	// Accumulate in ascending count order, so the float sum does not
	// depend on where patterns landed in the table.
	ws.cs = ws.cs[:0]
	for slot, k := range keys {
		if k != 0 {
			ws.cs = append(ws.cs, tally[slot])
		}
	}
	slices.Sort(ws.cs)
	var h float64
	for _, c := range ws.cs {
		p := float64(c) / float64(total)
		h -= p * math.Log(p)
	}
	// Normalize by the maximum attainable entropy log(n!).
	maxH := logFactorial(n)
	if maxH == 0 {
		return 0, nil
	}
	return h / maxH, nil
}

// factorial returns n! for the permutation orders (n <= 12 fits an int).
func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// histogram bins xs into nbins reused workspace bins and returns the
// counts with their total, mirroring stats.Histogram.
func (ws *Workspace) histogram(xs []float64, nbins int) ([]int, int) {
	if cap(ws.hist) < nbins {
		ws.hist = make([]int, nbins)
	}
	ws.hist = ws.hist[:nbins]
	counts := stats.HistogramInto(ws.hist, xs)
	total := 0
	for _, c := range counts {
		total += c
	}
	return counts, total
}

// RenyiSignal is the workspace form of the package-level RenyiSignal.
//
//selflearn:hotpath
func (ws *Workspace) RenyiSignal(xs []float64, alpha float64, nbins int) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	if nbins <= 0 {
		return 0, fmt.Errorf("entropy: invalid bin count %d", nbins)
	}
	if alpha <= 0 {
		return 0, fmt.Errorf("entropy: Rényi order must be positive, got %g", alpha)
	}
	counts, total := ws.histogram(xs, nbins)
	if total == 0 {
		return 0, nil
	}
	if alpha == 1 {
		return shannonCounts(counts, total), nil
	}
	// Identical accumulation to Renyi(Probabilities(counts), alpha):
	// empty bins are skipped in bin order.
	var s float64
	for _, c := range counts {
		if c > 0 {
			s += math.Pow(float64(c)/float64(total), alpha)
		}
	}
	if s == 0 {
		return 0, nil
	}
	return math.Log(s) / (1 - alpha), nil
}

// ShannonSignal is the workspace form of the package-level ShannonSignal.
func (ws *Workspace) ShannonSignal(xs []float64, nbins int) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	if nbins <= 0 {
		return 0, fmt.Errorf("entropy: invalid bin count %d", nbins)
	}
	counts, total := ws.histogram(xs, nbins)
	if total == 0 {
		return 0, nil
	}
	return shannonCounts(counts, total), nil
}

func shannonCounts(counts []int, total int) float64 {
	var h float64
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(total)
			h -= p * math.Log(p)
		}
	}
	return h
}

// Sample is the workspace form of the package-level Sample: the sorted
// index scratch is reused across calls.
func (ws *Workspace) Sample(xs []float64, m int, r float64) (float64, error) {
	if m < 1 {
		return 0, fmt.Errorf("entropy: sample entropy m must be >= 1, got %d", m)
	}
	if r < 0 {
		return 0, fmt.Errorf("entropy: sample entropy tolerance must be >= 0, got %g", r)
	}
	if len(xs) < m+2 {
		return 0, nil
	}
	if n := len(xs) - m; cap(ws.order) < n {
		ws.order = make([]int32, n)
	}
	a, b := sampleCounts(xs, m, r, ws.order)
	if a == 0 || b == 0 {
		return 0, nil
	}
	return -math.Log(float64(a) / float64(b)), nil
}

// SampleK is the workspace form of the package-level SampleK.
//
//selflearn:hotpath
func (ws *Workspace) SampleK(xs []float64, m int, k float64) (float64, error) {
	if k < 0 {
		return 0, fmt.Errorf("entropy: sample entropy k must be >= 0, got %g", k)
	}
	if len(xs) == 0 {
		return 0, nil
	}
	return ws.Sample(xs, m, k*stats.StdDev(xs))
}
