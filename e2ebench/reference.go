package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"selflearn/internal/core"
	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
	"selflearn/internal/rt"
)

// circularRows returns, per recording, the feature row of every
// circular window: row j covers recording seconds j … j+winHops−1
// (mod the cycle). Features depend only on a window's samples, so a
// patient's window k at rotation offset o is row (o+k) mod L — the
// reference replay reuses these rows across every patient sharing the
// recording instead of re-extracting each stream.
func circularRows(w workload, recs []*recording) ([][][]float64, error) {
	L := w.cycle()
	out := make([][][]float64, len(recs))
	for ri, rec := range recs {
		st, err := features.NewStreamer(sampleRate, features.DefaultConfig())
		if err != nil {
			return nil, err
		}
		rows := make([][]float64, 0, L)
		for s := 0; s < L+winHops-1; s++ {
			c0, c1 := rec.second(s % L)
			for i := range c0 {
				row, ok, err := st.Push(c0[i], c1[i])
				if err != nil {
					return nil, err
				}
				if ok {
					rows = append(rows, append([]float64(nil), row...))
				}
			}
		}
		if len(rows) != L {
			return nil, fmt.Errorf("circular rows: %d windows for a %d s cycle", len(rows), L)
		}
		out[ri] = rows
	}
	return out, nil
}

// contiguous reports whether the patient's admitted stream is every
// generator second in order (no prefilter suppression).
func contiguous(admitted []int32) bool {
	for i, s := range admitted {
		if int(s) != i {
			return false
		}
	}
	return true
}

// streamRows extracts the patient's windows by streaming its admitted
// seconds through a fresh features.Streamer.
func streamRows(w workload, p *patient) ([][]float64, error) {
	st, err := features.NewStreamer(sampleRate, features.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, 0, len(p.admitted))
	for _, s := range p.admitted {
		c0, c1 := p.rec.second((p.off + int(s)) % w.cycle())
		for i := range c0 {
			row, ok, err := st.Push(c0[i], c1[i])
			if err != nil {
				return nil, err
			}
			if ok {
				rows = append(rows, append([]float64(nil), row...))
			}
		}
	}
	return rows, nil
}

// patientRows returns the feature rows of every window the patient's
// admitted stream completed.
func patientRows(w workload, p *patient, circ [][][]float64) ([][]float64, error) {
	if !contiguous(p.admitted) {
		return streamRows(w, p)
	}
	n := int(p.expectedWindows())
	rows := make([][]float64, n)
	L := w.cycle()
	for k := range rows {
		rows[k] = circ[p.recIdx][(p.off+k)%L]
	}
	return rows, nil
}

type nopClassifier struct{}

func (nopClassifier) Predict([]float64) bool { return false }

// referenceAlarms replays one patient single-threaded: its window rows
// through the model that was live for each window
// (FlatForest.PredictBatchInto, float path) and an rt.Detector.
func referenceAlarms(p *patient, rows [][]float64) ([]float64, error) {
	det, err := rt.NewDetector(nopClassifier{}, alarmConfig())
	if err != nil {
		return nil, err
	}
	preds := make([]bool, len(rows))
	for k := 0; k < len(rows); {
		m := modelAt(p, k)
		end := k + 1
		for end < len(rows) && modelAt(p, end) == m {
			end++
		}
		if m != nil {
			m.PredictBatchInto(preds[k:end], rows[k:end])
		}
		k = end
	}
	var out []float64
	for _, pr := range preds {
		if det.PushPrediction(pr) {
			out = append(out, det.LastAlarmTime())
		}
	}
	return out, nil
}

// modelAt is the model that classified window k (nil while untrained).
func modelAt(p *patient, k int) *forest.FlatForest {
	var m *forest.FlatForest
	for _, sw := range p.models {
		if k+winHops-1 >= sw.from {
			m = sw.model
		}
	}
	return m
}

// learnerTimes are the replayed retrain stages of one confirmation.
type learnerTimes struct {
	label, train, parity time.Duration
	matches              bool // replayed model has the served model's shape
}

// replayRetrain re-runs the self-learning retrain of confirmation c on
// the history the server held at that moment: a-posteriori labeling
// (core.LabelMatrix), forest.Train with the learner's per-patient seed,
// and Flatten + QuantParity.
func replayRetrain(w workload, p *patient, rows [][]float64, c confirmRec, served *forest.FlatForest) (learnerTimes, error) {
	var lt learnerTimes
	n := c.admitted - winHops + 1 // windows completed before the confirm
	if n > len(rows) {
		n = len(rows)
	}
	hist := rows[:n]
	if h := int(w.history / time.Second); len(hist) > h {
		hist = hist[len(hist)-h:]
	}
	fcfg := features.DefaultConfig()
	m := &features.Matrix{Names: features.PaperFeatureNames(), Rows: hist, Window: fcfg.Window, SampleRate: sampleRate}
	t0 := time.Now()
	_, res, err := core.LabelMatrix(m, time.Duration(w.dur)*time.Second)
	lt.label = time.Since(t0)
	if err != nil {
		return lt, err
	}
	X, y := selfLabeledSet(hist, res.Index, res.Window)
	cfg := forest.DefaultConfig()
	h := fnv.New64a()
	h.Write([]byte(p.id))
	cfg.Seed = int64(h.Sum64()) ^ c.seq
	t0 = time.Now()
	f, err := forest.Train(X, y, cfg)
	lt.train = time.Since(t0)
	if err != nil {
		return lt, err
	}
	t0 = time.Now()
	flat := f.Flatten()
	if !flat.QuantParity(X) {
		flat.DropQuant()
	}
	lt.parity = time.Since(t0)
	lt.matches = served != nil && served.NumNodes() == flat.NumNodes() && (served.Quant() == nil) == (flat.Quant() == nil)
	return lt, nil
}

// selfLabeledSet mirrors the learner's training-set construction: every
// row of the labeled interval is a positive, and negatives are sampled
// from the rest of the buffer at about three per positive.
func selfLabeledSet(rows [][]float64, pos, w int) (X [][]float64, y []bool) {
	for i := pos; i < pos+w && i < len(rows); i++ {
		X = append(X, rows[i])
		y = append(y, true)
	}
	nNeg := len(rows) - w
	stride := 1
	if want := 3 * w; want > 0 && nNeg > want {
		stride = nNeg / want
	}
	for i := 0; i < len(rows); i += stride {
		if i >= pos && i < pos+w {
			continue
		}
		X = append(X, rows[i])
		y = append(y, false)
	}
	return X, y
}
