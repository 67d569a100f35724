package main

import (
	"bytes"
	"math"
	"testing"

	"selflearn/internal/serve"
	"selflearn/internal/wire"
)

// replayWire's per-second memo must price every patient's frames
// exactly as encoding each frame on its own does, and every patient
// must count toward the per-window figures, gated or not.
func TestReplayWireMatchesFrameByFrame(t *testing.T) {
	w := workload{seizures: 2, gap: 10} // 20 s cycle
	L := w.cycle()
	rec := &recording{c0: make([]float64, L*fs), c1: make([]float64, L*fs)}
	for i := range rec.c0 {
		v := math.Sin(float64(i) * 0.01)
		if i < L*fs/2 {
			v = math.Round(v * 64) // an ADC grid: these seconds go out as KindPushQ
		}
		rec.c0[i], rec.c1[i] = v, -v
	}
	r := &runner{w: w, recs: []*recording{rec}}
	full := &patient{id: "p0000", rec: rec, off: 3, next: 30}
	for s := 0; s < 30; s++ {
		full.admitted = append(full.admitted, int32(s))
	}
	full.frames = []frame{{kind: frameConfirm, sec: 29}}
	r.pats = append(r.pats, full)
	for i, off := range []int{0, 7} {
		pf, err := serve.NewPrefilterClient(prefilterConfig())
		if err != nil {
			t.Fatal(err)
		}
		p := &patient{i: i + 1, id: "p000" + string(rune('1'+i)), rec: rec, off: off, pf: pf, next: 40, armedAt: 10}
		p.admitted = []int32{2, 3, 12, 13, 14}
		p.timedFrom = 2
		p.frames = []frame{
			{kind: frameDecl, sec: 10},
			{kind: frameDigest, sec: 20, d: serve.Digest{Windows: 7, SumAmp: 14, MinAmp: 1, MaxAmp: 3}},
			{kind: frameAudit, sec: 21},
			{kind: frameDigest, sec: 39, d: serve.Digest{Windows: 17, SumAmp: 40, MinAmp: 1, MaxAmp: 4}},
		}
		r.pats = append(r.pats, p)
	}

	var total, fullBytes, gatedBytes, pushq, pushes uint64
	var fullFrames int
	for _, p := range r.pats {
		for _, f := range p.uplinkFrames() {
			var buf bytes.Buffer
			enc := wire.NewEncoder(&buf)
			c0, c1 := p.rec.second((p.off + int(f.sec)) % L)
			var err error
			switch f.kind {
			case framePush:
				err = enc.Push(p.id, c0, c1)
			case frameAudit:
				err = enc.AuditPush(p.id, c0, c1)
			case frameDigest:
				err = enc.PushDigest(p.id, f.d)
			case frameConfirm:
				err = enc.Confirm(p.id)
			case frameDecl:
				err = enc.PrefilterDecl(p.id, p.pf.Declared())
			}
			if err == nil {
				err = enc.Flush()
			}
			if err != nil {
				t.Fatal(err)
			}
			n := enc.BytesWritten()
			total += n
			if p.pf != nil {
				gatedBytes += n
			} else if f.kind == framePush {
				fullBytes += n
				fullFrames++
			}
			if f.kind == framePush {
				pushes++
				if wire.Kind(buf.Bytes()[4]) == wire.KindPushQ {
					pushq++
				}
			}
		}
	}
	if pushq == 0 || pushq == pushes {
		t.Fatalf("fixture should mix float and quantized pushes, got %d of %d quantized", pushq, pushes)
	}

	wc, err := replayWire(r, newTracer(false, 0, ""))
	if err != nil {
		t.Fatal(err)
	}
	if wc.totalBytes != total {
		t.Errorf("totalBytes %d, frame by frame %d", wc.totalBytes, total)
	}
	if want := float64(fullBytes) / float64(fullFrames); wc.fullBytes != want {
		t.Errorf("fullBytes %v, want %v", wc.fullBytes, want)
	}
	if want := float64(gatedBytes) / 60; wc.gatedBytes != want { // two gated patients, 30 s each since arming
		t.Errorf("gatedBytes %v, want %v", wc.gatedBytes, want)
	}
	if want := float64(pushq) / float64(pushes); wc.pushqFrac != want {
		t.Errorf("pushqFrac %v, want %v", wc.pushqFrac, want)
	}
}
