package main

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"selflearn/internal/dsp/spectrum"
	"selflearn/internal/dsp/wavelet"
	"selflearn/internal/dsp/window"
	"selflearn/internal/entropy"
	"selflearn/internal/features"
	"selflearn/internal/ml/forest"
	"selflearn/internal/rt"
	"selflearn/internal/serve"
	"selflearn/internal/wire"
)

// Layer replay call names (spanLayer spans).
const (
	layerStreamer uint8 = iota
	layerPeriodogram
	layerDWT
	layerEntropy
	layerResidual
	layerForestQuant
	layerForestFloat
	layerRT
	layerLabel
	layerTrain
	layerParity
	layerEncode
	layerDecode
)

var layerNames = [...]string{
	"features.Streamer.Push", "spectrum.PeriodogramInto", "wavelet.PadPow2+DecomposeInto",
	"entropy.Workspace", "features.residual", "forest.quant.PredictBatchInto",
	"forest.float.PredictBatchInto", "rt.Detector.PushPrediction", "core.LabelMatrix",
	"forest.Train", "forest.Flatten+QuantParity", "wire.Encoder", "wire.Decoder",
}

// reconcileTol is how far the replayed feature stages may sum from the
// whole Streamer.Push cost before the traced run fails.
const reconcileTol = 0.15

// frame is one uplink frame the generator sent from the prefilter
// declarations on.
type frame struct {
	kind uint8
	sec  int32
	d    serve.Digest
}

const (
	framePush uint8 = iota
	frameAudit
	frameDigest
	frameConfirm
	frameDecl
)

type featureCosts struct {
	total, periodogram, dwt, entropy, residual float64 // µs per window
	windows                                    int
}

// replayFeatures times features.Streamer.Push over one hop per window
// and, on the same windows, each stage Features10Into runs: two
// periodograms, the padded level-7 DWT, the six entropy estimates, and
// the residual (the hop's non-emitting pushes, ring linearization and
// band-power reads).
func replayFeatures(w workload, recs []*recording, tr *tracer) (featureCosts, error) {
	var fc featureCosts
	cfg := features.DefaultConfig()
	win := cfg.Window.SamplesPerWindow(sampleRate)
	spec, err := spectrum.NewWorkspace(win, sampleRate, window.Hann)
	if err != nil {
		return fc, err
	}
	wl := cfg.Wavelet.NewWorkspace()
	var ent entropy.Workspace
	var psd0, psd1 spectrum.PSD
	var dec wavelet.Decomposition
	lin0, lin1 := make([]float64, win), make([]float64, win)
	var firstErr error
	keep := func(v float64, err error) float64 {
		if firstErr == nil {
			firstErr = err
		}
		return v
	}
	push := func(st *features.Streamer, v0, v1 float64) bool {
		_, ok, err := st.Push(v0, v1)
		keep(0, err)
		return ok
	}
	var sink float64
	var tot, per, dw, en, res int64
	L := w.cycle()
	id := uint64(0)
	for _, rec := range recs {
		st, err := features.NewStreamer(sampleRate, cfg)
		if err != nil {
			return fc, err
		}
		for s := 0; s < L; s++ {
			c0, c1 := rec.second(s)
			if s < winHops-1 {
				for i := range c0 {
					push(st, c0[i], c1[i])
				}
				continue
			}
			id++
			t0 := now()
			for i := 0; i < fs-1; i++ {
				push(st, c0[i], c1[i])
			}
			t1 := now()
			if !push(st, c0[fs-1], c1[fs-1]) {
				return fc, fmt.Errorf("features replay: no row at second %d", s)
			}
			t2 := now()
			tr.addLayer(spanLayer, layerStreamer, id, spanNone, t0, t2)
			tot += t2 - t0

			w0 := rec.c0[(s-winHops+1)*fs : (s+1)*fs]
			w1 := rec.c1[(s-winHops+1)*fs : (s+1)*fs]
			t3 := now()
			copy(lin0, w0)
			copy(lin1, w1)
			t4 := now()
			keep(0, spec.PeriodogramInto(&psd0, lin0))
			keep(0, spec.PeriodogramInto(&psd1, lin1))
			t5 := now()
			padded := wl.PadPow2(lin1)
			keep(0, wl.DecomposeInto(&dec, padded, cfg.Level))
			t6 := now()
			sink += keep(ent.Permutation(dec.Detail(cfg.Level), 5)) +
				keep(ent.Permutation(dec.Detail(cfg.Level), 7)) +
				keep(ent.Permutation(dec.Detail(cfg.Level-1), 7)) +
				keep(ent.RenyiSignal(dec.Detail(3), cfg.RenyiAlpha, cfg.RenyiBins)) +
				keep(ent.SampleK(dec.Detail(cfg.Level-1), cfg.SampleM, 0.2)) +
				keep(ent.SampleK(dec.Detail(cfg.Level-1), cfg.SampleM, 0.35))
			t7 := now()
			sink += psd0.BandPower(spectrum.Theta) + psd0.RelativeBandPower(spectrum.Theta) +
				psd0.BandPower(spectrum.Delta) + psd1.RelativeBandPower(spectrum.Theta)
			t8 := now()
			tr.addLayer(spanLayer, layerPeriodogram, id, spanNone, t4, t5)
			tr.addLayer(spanLayer, layerDWT, id, spanNone, t5, t6)
			tr.addLayer(spanLayer, layerEntropy, id, spanNone, t6, t7)
			tr.addLayer(spanLayer, layerResidual, id, spanNone, t3, t4)
			per += t5 - t4
			dw += t6 - t5
			en += t7 - t6
			res += (t1 - t0) + (t4 - t3) + (t8 - t7)
			fc.windows++
		}
	}
	if firstErr != nil {
		return fc, fmt.Errorf("features replay: %w", firstErr)
	}
	if math.IsNaN(sink) {
		return fc, fmt.Errorf("features replay: NaN features")
	}
	n := float64(fc.windows) * 1e3
	fc.total, fc.periodogram, fc.dwt, fc.entropy, fc.residual =
		float64(tot)/n, float64(per)/n, float64(dw)/n, float64(en)/n, float64(res)/n
	return fc, nil
}

type forestCosts struct {
	usPerRow, quant, float float64 // µs per row: served path, int16, DropQuant copy
	quantFrac, residentKB  float64
	mismatches             int
}

// replayForest scores the same rows through every patient's served
// model and through a DropQuant copy of it, one 16-row batch per model
// in turn so the resident models contend for cache as they do when
// served.
func replayForest(r *runner, circ [][][]float64, tr *tracer) (forestCosts, error) {
	var fc forestCosts
	const batch, rounds = 16, 16
	type pair struct {
		served, float *forest.FlatForest
		rec           int
	}
	var ms []pair
	quant := 0
	for _, p := range r.pats {
		if len(p.models) == 0 {
			continue
		}
		m := p.models[len(p.models)-1].model
		js, err := m.MarshalJSON()
		if err != nil {
			return fc, err
		}
		cp, err := forest.LoadFlat(bytes.NewReader(js))
		if err != nil {
			return fc, err
		}
		cp.DropQuant()
		ms = append(ms, pair{served: m, float: cp, rec: p.recIdx})
		nodes := float64(m.NumNodes()) * 16
		if q := m.Quant(); q != nil {
			quant++
			nodes += float64(q.NodeBytes())
		}
		fc.residentKB += nodes / 1024
	}
	if len(ms) == 0 {
		return fc, fmt.Errorf("forest replay: no trained models")
	}
	fc.quantFrac = float64(quant) / float64(len(ms))
	nf := len(features.PaperFeatureNames())
	codes := make([]int16, batch*nf)
	pq, pf := make([]bool, batch), make([]bool, batch)
	var tq, tf, tServed int64
	var nq, nFl, nServed int
	id := uint64(0)
	for round := 0; round < rounds; round++ {
		for i, m := range ms {
			rows := circ[m.rec]
			start := (round*batch + i*7) % (len(rows) - batch)
			X := rows[start : start+batch]
			id++
			t0 := now()
			m.float.PredictBatchInto(pf, X)
			t1 := now()
			tr.addLayer(spanLayer, layerForestFloat, id, spanNone, t0, t1)
			tf += t1 - t0
			nFl += batch
			qf := m.served.Quant()
			if qf == nil {
				tServed += t1 - t0
				nServed += batch
				continue
			}
			t2 := now()
			for k, row := range X {
				qf.QuantizeRowInto(codes[k*nf:(k+1)*nf], row)
			}
			qf.PredictBatchInto(pq, codes, batch)
			t3 := now()
			tr.addLayer(spanLayer, layerForestQuant, id, spanNone, t2, t3)
			tq += t3 - t2
			nq += batch
			tServed += t3 - t2
			nServed += batch
			for k := range pq {
				if pq[k] != pf[k] {
					fc.mismatches++
				}
			}
		}
	}
	fc.float = float64(tf) / float64(nFl) / 1e3
	if nq > 0 {
		fc.quant = float64(tq) / float64(nq) / 1e3
	}
	fc.usPerRow = float64(tServed) / float64(nServed) / 1e3
	return fc, nil
}

// replayRT times rt.Detector.PushPrediction over every patient's
// reference predictions.
func replayRT(r *runner, rowsOf [][][]float64, tr *tracer) (float64, error) {
	var total int64
	var n int
	for i, p := range r.pats {
		rows := rowsOf[i]
		preds := make([]bool, len(rows))
		for k := range rows {
			if m := modelAt(p, k); m != nil {
				preds[k] = m.Predict(rows[k])
			}
		}
		det, err := rt.NewDetector(nopClassifier{}, alarmConfig())
		if err != nil {
			return 0, err
		}
		t0 := now()
		for _, pr := range preds {
			det.PushPrediction(pr)
		}
		t1 := now()
		tr.addLayer(spanLayer, layerRT, uint64(i), spanNone, t0, t1)
		total += t1 - t0
		n += len(preds)
	}
	if n == 0 {
		return 0, nil
	}
	return float64(total) / float64(n), nil
}

type wireCosts struct {
	encodeNs, decodeNs    float64
	fullBytes, gatedBytes float64 // per full push frame; per gated patient-second
	pushqFrac             float64
	totalBytes            uint64 // every timed-phase frame, framed as a router sends it
	encoded               int    // frames encoded and decoded back
}

// replayWire prices every timed-phase frame with wire.Encoder and
// decodes the encoded frames back with wire.Decoder. Patient IDs are
// fixed-width, so a push or audit frame depends only on its recording
// second: each (kind, recording, second) is encoded once and its size
// and frame kind count for every patient that sends it. Digests,
// confirmations and prefilter declarations are encoded one by one.
func replayWire(r *runner, tr *tracer) (wireCosts, error) {
	var wc wireCosts
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	type key struct {
		kind     uint8
		rec, pos int
	}
	type sized struct {
		n    uint64
		kind wire.Kind
	}
	memo := map[key]sized{}
	var encNs int64
	var fullBytes, fullFrames, gatedBytes, gatedSecs, push, pushq uint64
	for _, p := range r.pats {
		gated := p.pf != nil
		if gated {
			gatedSecs += uint64(p.next - p.armedAt)
		}
		for _, f := range p.uplinkFrames() {
			pos := (p.off + int(f.sec)) % r.w.cycle()
			k := key{f.kind, p.recIdx, pos}
			sz, ok := memo[k]
			if !ok {
				before, start := enc.BytesWritten(), buf.Len()
				t0 := now()
				var err error
				switch f.kind {
				case framePush:
					c0, c1 := p.rec.second(pos)
					err = enc.Push(p.id, c0, c1)
				case frameAudit:
					c0, c1 := p.rec.second(pos)
					err = enc.AuditPush(p.id, c0, c1)
				case frameDigest:
					err = enc.PushDigest(p.id, f.d)
				case frameConfirm:
					err = enc.Confirm(p.id)
				case frameDecl:
					err = enc.PrefilterDecl(p.id, p.pf.Declared())
				}
				t1 := now()
				if err == nil {
					err = enc.Flush()
				}
				if err != nil {
					return wc, fmt.Errorf("wire replay: %w", err)
				}
				tr.addLayer(spanLayer, layerEncode, uint64(wc.encoded), spanNone, t0, t1)
				encNs += t1 - t0
				wc.encoded++
				sz = sized{n: enc.BytesWritten() - before, kind: wire.Kind(buf.Bytes()[start+4])}
				if f.kind == framePush || f.kind == frameAudit {
					memo[k] = sz
				}
			}
			wc.totalBytes += sz.n
			if gated {
				gatedBytes += sz.n
			} else if f.kind == framePush {
				fullBytes += sz.n
				fullFrames++
			}
			if f.kind == framePush {
				switch sz.kind {
				case wire.KindPush:
					push++
				case wire.KindPushQ:
					pushq++
				}
			}
		}
	}
	if wc.encoded == 0 {
		return wc, fmt.Errorf("wire replay: no frames")
	}
	dec := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
	var decNs int64
	decoded := 0
	for {
		t0 := now()
		_, err := dec.Next()
		t1 := now()
		if err == io.EOF {
			break
		}
		if err != nil {
			return wc, fmt.Errorf("wire replay: %w", err)
		}
		tr.addLayer(spanLayer, layerDecode, uint64(decoded), spanNone, t0, t1)
		decNs += t1 - t0
		decoded++
	}
	if decoded != wc.encoded {
		return wc, fmt.Errorf("wire replay: decoded %d of %d frames", decoded, wc.encoded)
	}
	wc.encodeNs = float64(encNs) / float64(wc.encoded)
	wc.decodeNs = float64(decNs) / float64(decoded)
	if fullFrames > 0 {
		wc.fullBytes = float64(fullBytes) / float64(fullFrames)
	}
	if gatedSecs > 0 {
		wc.gatedBytes = float64(gatedBytes) / float64(gatedSecs)
	}
	if push+pushq > 0 {
		wc.pushqFrac = float64(pushq) / float64(push+pushq)
	}
	return wc, nil
}

// perLayer runs the single-goroutine replays and reports every
// per-layer metric.
func perLayer(rep *report, w workload, r *runner, rowsOf [][][]float64, circ [][][]float64,
	wc wireCosts, unp, unpTr phaseStats, ol openStats, lateP99, depthSlope float64) error {
	local := w.shards == 0
	fcost, err := replayFeatures(w, r.recs, r.tr)
	if err != nil {
		return err
	}
	sum := fcost.periodogram + fcost.dwt + fcost.entropy + fcost.residual
	gap := (sum - fcost.total) / fcost.total
	r.led.check(math.Abs(gap) <= reconcileTol, "feature stages reconcile with Streamer.Push")
	fmt.Printf("# reconciliation: periodogram %.2f + dwt %.2f + entropy %.2f + residual %.2f = %.2f us vs Streamer.Push %.2f us (%+.1f%%, tolerance ±%.0f%%)\n",
		fcost.periodogram, fcost.dwt, fcost.entropy, fcost.residual, sum, fcost.total, 100*gap, 100*reconcileTol)
	forc, err := replayForest(r, circ, r.tr)
	if err != nil {
		return err
	}
	r.led.check(forc.mismatches == 0, "int16 and float forest decisions agree")
	rtNs, err := replayRT(r, rowsOf, r.tr)
	if err != nil {
		return err
	}
	lt, matched, err := replayLearner(r, rowsOf)
	if err != nil {
		return err
	}

	// Streamer equivalence: the reference's shared circular rows equal
	// a full features.Streamer pass over a few patients' streams.
	for _, p := range r.pats[:4] {
		if !contiguous(p.admitted) {
			continue
		}
		full, err := streamRows(w, p)
		if err != nil {
			return err
		}
		r.led.check(equalRows(full, rowsOf[p.i]), "circular rows equal a full Streamer replay")
	}

	cpuUnp := float64(unp.cpu.Microseconds()) / float64(unp.accounted)
	cpuTr := float64(unpTr.cpu.Microseconds()) / float64(unpTr.accounted)
	var pushUs []float64
	var decide []float64
	var bp, pushes uint64
	var gatedSupp, gatedSecs uint64
	for _, p := range r.pats {
		for _, v := range p.pushNs {
			pushUs = append(pushUs, float64(v)/1e3)
		}
		for _, v := range p.decideNs {
			decide = append(decide, float64(v))
		}
		bp += p.bpRetries
		pushes += p.pushes
		if p.pf != nil {
			gatedSupp += p.pf.Suppressed()
			gatedSecs += uint64(p.next - p.armedAt)
		}
	}
	st := r.sys.stats()
	cs := r.sys.clientStats()
	bpFrac := float64(bp) / float64(pushes+bp)
	zero := func(name, unit string) {
		rep.value(name, unit, 0, nil)
		fmt.Printf("#   (%s does not apply to %s)\n", name, w.name)
	}
	p50p99 := func(prefix, unit string, xs []float64) {
		rep.pct(prefix+"_p50", unit, xs, 0.50, true, true)
		rep.pct(prefix+"_p99", unit, xs, 0.99, true, true)
	}

	if local {
		p50p99("serve.push_us", "us", pushUs)
		rep.value("serve.backpressure_frac", "ratio", bpFrac, nil)
		rep.value("serve.queue_depth_mean", "jobs", meanOf(ol.depth), nil)
	} else {
		zero("serve.push_us_p50", "us")
		zero("serve.push_us_p99", "us")
		zero("serve.backpressure_frac", "ratio")
		rep.value("serve.queue_depth_mean", "jobs", meanOf(ol.depth), nil)
	}
	p50p99("serve.alarm_lag_ms", "ms", ol.lag)

	rep.value("features.us_per_window", "us", fcost.total, nil)
	rep.value("features.periodogram.us_per_window", "us", fcost.periodogram, nil)
	rep.value("features.dwt.us_per_window", "us", fcost.dwt, nil)
	rep.value("features.entropy.us_per_window", "us", fcost.entropy, nil)
	rep.value("features.residual.us_per_window", "us", fcost.residual, nil)

	rep.value("forest.us_per_row", "us", forc.usPerRow, nil)
	rep.value("forest.us_per_row.quant", "us", forc.quant, nil)
	rep.value("forest.us_per_row.float", "us", forc.float, nil)
	rep.value("forest.quant_frac", "ratio", forc.quantFrac, nil)
	rep.value("forest.resident_kb", "KB", forc.residentKB, nil)

	rep.value("rt.ns_per_window", "ns", rtNs, nil)

	rep.value("learner.label_ms_p50", "ms", median(lt.label), lt.label)
	rep.value("learner.train_ms_p50", "ms", median(lt.train), lt.train)
	rep.value("learner.parity_ms_p50", "ms", median(lt.parity), lt.parity)
	retrainMs := msOf(r.retrains)
	compute := median(lt.label) + median(lt.train) + median(lt.parity)
	rep.value("learner.wait_ms_p50", "ms", median(retrainMs)-compute, nil)
	rep.value("learner.retrains", "count", float64(st.Retrains), nil)
	rep.value("learner.errors", "count", float64(st.RetrainErrors+r.ev.retrainE.Load()), nil)
	fmt.Printf("# learner replay reproduced %d of %d served models' shapes\n", matched, len(lt.label))

	p50p99("events.deliver_ms", "ms", ol.deliver)
	rep.value("events.dropped", "count", float64(cs.EventsDropped), nil)

	rep.value("wire.encode_ns_per_frame", "ns", wc.encodeNs, nil)
	rep.value("wire.decode_ns_per_frame", "ns", wc.decodeNs, nil)
	rep.value("wire.bytes_per_window.full", "bytes", wc.fullBytes, nil)
	rep.value("wire.bytes_per_window.gated", "bytes", wc.gatedBytes, nil)
	rep.value("wire.pushq_frac", "ratio", wc.pushqFrac, nil)

	if !local {
		p50p99("cluster.push_us", "us", pushUs)
		rep.value("cluster.backpressure_frac", "ratio", bpFrac, nil)
		rep.value("cluster.conn_writes_per_window", "count", float64(ol.connWrites)/float64(ol.accounted), nil)
		rep.value("cluster.conn_bytes_per_window", "bytes", float64(ol.connBytes)/float64(ol.accounted), nil)
		rep.value("prefilter.decide_ns", "ns", meanOf(decide), nil)
		rep.value("prefilter.suppressed_frac", "ratio", float64(gatedSupp)/float64(gatedSecs), nil)
	} else {
		zero("cluster.push_us_p50", "us")
		zero("cluster.push_us_p99", "us")
		zero("cluster.backpressure_frac", "ratio")
		zero("cluster.conn_writes_per_window", "count")
		zero("cluster.conn_bytes_per_window", "bytes")
		zero("prefilter.decide_ns", "ns")
		zero("prefilter.suppressed_frac", "ratio")
	}
	rep.value("prefilter.audit_samples", "count", float64(st.AuditSamples), nil)
	rep.value("prefilter.audit_disagreements", "count", float64(st.AuditDisagreements), nil)
	rep.value("prefilter.drift_events", "count", float64(st.PrefilterDrift), nil)

	rep.value("proc.cpu_busy_frac", "ratio", unp.cpu.Seconds()/(unp.wall.Seconds()*float64(r.procs)), nil)
	rep.value("proc.alloc_bytes_per_window", "bytes", float64(unp.alloc)/float64(unp.accounted), nil)
	rep.value("proc.gc_pause_ms_total", "ms", float64(unp.gcPause+unpTr.gcPause+ol.gcPause)/1e6, nil)
	rep.value("gen.late_p99_ms", "ms", lateP99, nil)
	rep.value("gen.queue_depth_slope", "jobs/s", depthSlope, nil)
	rep.value("trace.overhead_frac", "ratio", cpuTr/cpuUnp-1, nil)
	attributed := fcost.total + forc.usPerRow + rtNs/1e3
	rep.value("pipeline.attributed_frac", "ratio", attributed/cpuUnp, nil)

	// Design-intent predictions.
	switch w.name {
	case "ward-inproc":
		share := fcost.total / cpuUnp
		verdict(share > 0.5, fmt.Sprintf("features are the majority of window CPU (%.0f%% of %.1f us)", 100*share, cpuUnp))
	case "selflearn-confirm":
		share := compute / median(retrainMs)
		verdict(share > 0.5, fmt.Sprintf("the learner is the majority of confirm-path time (%.1f of %.1f ms, %.0f%%)", compute, median(retrainMs), 100*share))
	case "edge-fleet-tcp":
		share := fcost.total * float64(st.Windows-r.windowsAtArm) / float64((unp.cpu + unpTr.cpu + ol.cpu).Microseconds())
		verdict(share < 0.5, fmt.Sprintf("features are a minority of CPU (%.0f%%)", 100*share))
	}
	return nil
}

func verdict(ok bool, claim string) {
	v := "CONFIRMED"
	if !ok {
		v = "REFUTED"
	}
	fmt.Printf("# prediction %s: %s\n", v, claim)
}

type learnerSamples struct{ label, train, parity []float64 }

// replayLearner replays up to 160 retrains: the timed confirmations'
// when the workload has them, otherwise the set-up's.
func replayLearner(r *runner, rowsOf [][][]float64) (learnerSamples, int, error) {
	var ls learnerSamples
	type job struct{ p, c int }
	var timed, all []job
	for round := 0; ; round++ {
		any := false
		for i, p := range r.pats {
			if round < len(p.confirms) {
				any = true
				all = append(all, job{i, round})
				if p.confirms[round].timed {
					timed = append(timed, job{i, round})
				}
			}
		}
		if !any {
			break
		}
	}
	jobs := all
	if len(timed) > 0 {
		jobs = timed
	}
	if len(jobs) > 160 {
		jobs = jobs[:160]
	}
	matched := 0
	for k, j := range jobs {
		p := r.pats[j.p]
		var served *forest.FlatForest
		if j.c < len(p.models) {
			served = p.models[j.c].model
		}
		t0 := now()
		lt, err := replayRetrain(r.w, p, rowsOf[j.p], p.confirms[j.c], served)
		if err != nil {
			return ls, matched, err
		}
		id := uint64(k)
		r.tr.addLayer(spanLayer, layerLabel, id, spanNone, t0, t0+int64(lt.label))
		r.tr.addLayer(spanLayer, layerTrain, id, spanNone, t0+int64(lt.label), t0+int64(lt.label+lt.train))
		r.tr.addLayer(spanLayer, layerParity, id, spanNone, t0+int64(lt.label+lt.train), t0+int64(lt.label+lt.train+lt.parity))
		ls.label = append(ls.label, float64(lt.label)/1e6)
		ls.train = append(ls.train, float64(lt.train)/1e6)
		ls.parity = append(ls.parity, float64(lt.parity)/1e6)
		if lt.matches {
			matched++
		}
	}
	return ls, matched, nil
}

func equalRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
