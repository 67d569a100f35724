package features

import (
	"errors"
	"fmt"

	"selflearn/internal/signal"
)

// Streamer computes the paper's 10-feature rows sample by sample, the
// way the wearable's firmware does: two synchronized channel streams
// feed ring buffers of one analysis window (4 s); every hop (1 s) a
// feature row is emitted. Feeding an entire recording through a Streamer
// yields exactly the matrix Extract10 computes in batch.
//
// Each ring is two windows long and every sample is written twice, at
// pos and pos+window, so the current window is always the contiguous
// slice starting at the oldest sample and emission copies nothing.
type Streamer struct {
	cfg        Config
	fs         float64
	winSamples int
	hopSamples int
	buf0, buf1 []float64 // doubled rings, 2·winSamples long
	pos        int       // next write slot, in [0, winSamples)
	filled     int       // samples buffered so far (caps at winSamples)
	sinceEmit  int       // samples since the last emitted row
	rows       int       // rows emitted
	ws         *Workspace
	row        []float64 // reused emission buffer, 10 wide
}

// NewStreamer builds a streaming extractor for sampling rate fs.
func NewStreamer(fs float64, cfg Config) (*Streamer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fs <= 0 {
		return nil, fmt.Errorf("features: invalid sampling rate %g", fs)
	}
	win := cfg.Window.SamplesPerWindow(fs)
	hop := cfg.Window.HopSamples(fs)
	if win <= 0 || hop <= 0 {
		return nil, fmt.Errorf("features: degenerate window %d/%d at %g Hz", win, hop, fs)
	}
	ws, err := NewWorkspace(fs, cfg)
	if err != nil {
		return nil, err
	}
	return &Streamer{
		cfg:        cfg,
		fs:         fs,
		winSamples: win,
		hopSamples: hop,
		buf0:       make([]float64, 2*win),
		buf1:       make([]float64, 2*win),
		ws:         ws,
		row:        make([]float64, 0, 10),
	}, nil
}

// RowsEmitted returns how many feature rows have been produced.
func (s *Streamer) RowsEmitted() int { return s.rows }

// NumFeatures returns the width of every emitted feature row, so
// consumers sizing storage for rows derive it rather than assume it.
func (s *Streamer) NumFeatures() int { return len(PaperFeatureNames()) }

// Push feeds one synchronized sample pair (F7T3, F8T4). When a full
// window boundary is reached it returns the freshly computed feature row
// and ready = true; otherwise row is nil.
//
// The returned row is the Streamer's reusable emission buffer: it is
// valid until the next emitted row, and callers that retain rows must
// copy them. Together with the Workspace underneath, this keeps the
// steady-state push path completely allocation-free.
//
//selflearn:hotpath
func (s *Streamer) Push(v0, v1 float64) (row []float64, ready bool, err error) {
	win := s.winSamples
	s.buf0[s.pos] = v0
	s.buf0[s.pos+win] = v0
	s.buf1[s.pos] = v1
	s.buf1[s.pos+win] = v1
	s.pos++
	if s.pos == win {
		s.pos = 0
	}
	if s.filled < win {
		s.filled++
		if s.filled == win {
			// First complete window.
			return s.emit()
		}
		return nil, false, nil
	}
	s.sinceEmit++
	if s.sinceEmit == s.hopSamples {
		return s.emit()
	}
	return nil, false, nil
}

// emit computes the row of the current window into the reusable
// emission buffer. The oldest sample sits at s.pos, so the window is
// the contiguous view [pos, pos+win) of each doubled ring.
func (s *Streamer) emit() ([]float64, bool, error) {
	lo, hi := s.pos, s.pos+s.winSamples
	row, err := s.ws.Features10Into(s.row[:0], s.buf0[lo:hi:hi], s.buf1[lo:hi:hi])
	if err != nil {
		return nil, false, err
	}
	s.row = row
	s.sinceEmit = 0
	s.rows++
	return row, true, nil
}

// Reset clears the stream state.
func (s *Streamer) Reset() {
	s.pos, s.filled, s.sinceEmit, s.rows = 0, 0, 0, 0
}

// StreamRecording pushes an entire recording through a fresh Streamer and
// collects the emitted rows into a Matrix; it is the streaming
// counterpart of Extract10 and produces an identical result.
func StreamRecording(rec *signal.Recording, cfg Config) (*Matrix, error) {
	c0, c1, err := requireTwoChannels(rec)
	if err != nil {
		return nil, err
	}
	st, err := NewStreamer(rec.SampleRate, cfg)
	if err != nil {
		return nil, err
	}
	if len(c0) < st.winSamples {
		return nil, errors.New("features: recording shorter than one window")
	}
	m := &Matrix{
		Names:      PaperFeatureNames(),
		Window:     cfg.Window,
		SampleRate: rec.SampleRate,
	}
	for i := range c0 {
		row, ready, err := st.Push(c0[i], c1[i])
		if err != nil {
			return nil, err
		}
		if ready {
			// Push reuses its emission buffer; retained rows are copied.
			m.Rows = append(m.Rows, append([]float64(nil), row...))
		}
	}
	return m, nil
}
