package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"selflearn/internal/ml/forest"
	"selflearn/internal/scenario"
	"selflearn/internal/serve"
)

// modelSwitch records that windows completing at or after admitted
// position from were classified by model (the patient paused streaming
// until the retrain published it, so the switch point is exact).
type modelSwitch struct {
	from  int
	model *forest.FlatForest
}

// confirmRec is one confirmation and its retrain, kept for the
// learner replay.
type confirmRec struct {
	admitted int   // admitted-stream length when the patient confirmed
	seq      int64 // the patient's confirmation count, the retrain seed
	timed    bool  // confirmed in the open loop, so its latency counts
}

type patient struct {
	i      int
	id     string
	rec    *recording
	recIdx int
	off    int
	h      scenario.PrefilterHandle
	pf     *serve.PrefilterClient

	next     int     // next generator second to push
	admitted []int32 // generator seconds that entered the feature stream
	ring     [ringSlots]struct {
		buf   []float64
		batch int // admitted index of the batch last pushed from buf
	}
	ringPos int
	allocs  uint64 // push buffers allocated because no slot was free

	waiting     bool
	confirmAt   int64
	lastVersion uint64
	models      []modelSwitch
	confirms    []confirmRec

	updVersion atomic.Uint64
	updRecv    atomic.Int64
	retrainErr atomic.Bool

	// Open-loop bookkeeping, indexed by generator second − openFirst.
	openFirst int
	due       []int64
	pushRet   []int64

	frames    []frame // timed-phase uplink frames other than pushes
	timedFrom int     // admitted-stream length when the timed phases began
	armedAt   int     // generator second the prefilter was declared at
	target    int     // generator second the set-up stagger streams to

	pushes, audits, digests, nConfirms uint64
	bpRetries, errs                    uint64
	pushNs                             []int64 // traced Push durations
	decideNs                           []int64 // traced Decide durations
}

// slot returns a push buffer for the patient's next admitted second.
// The server owns a pushed batch until it has ingested it, so a ring
// slot is reused only once the stream's window count proves that (in
// process, via serve.Stream.Stats); otherwise — and always over TCP,
// where ingestion is not observable per stream — a fresh buffer
// replaces it.
func (p *patient) slot() (c0, c1 []float64) {
	sl := &p.ring[p.ringPos]
	p.ringPos = (p.ringPos + 1) % ringSlots
	reuse := false
	if sl.buf != nil {
		if st, ok := p.h.(*serve.Stream); ok {
			reuse = st.Stats().Windows >= uint64(max(sl.batch-winHops+2, 1))
		}
	}
	if !reuse {
		sl.buf = make([]float64, 2*fs)
		p.allocs++
	}
	sl.batch = len(p.admitted)
	return sl.buf[:fs:fs], sl.buf[fs:]
}

// expectedWindows is how many windows the patient's admitted stream
// has completed.
func (p *patient) expectedWindows() uint64 {
	if n := len(p.admitted) - winHops + 1; n > 0 {
		return uint64(n)
	}
	return 0
}

// runner owns one live system and its patients.
type runner struct {
	w        workload
	recs     []*recording
	pats     []*patient
	sys      system
	ev       *eventLog
	procs    int
	tr       *tracer
	trace    atomic.Bool // record spans for the current phase
	timed    bool        // frames now count toward the timed phases
	latPhase bool        // confirmations now count toward retrain latency
	retrains []int64     // open-loop confirm→model-updated latencies, ns
	mu       sync.Mutex
	led      *ledger

	windowsAtArm uint64 // windows classified before the timed phases
}

func newRunner(w workload, recs []*recording, procs int, tr *tracer, led *ledger) (*runner, error) {
	r := &runner{w: w, recs: recs, procs: procs, tr: tr, led: led}
	r.pats = make([]*patient, w.patients)
	idx := make(map[string]int, w.patients)
	for i := range r.pats {
		ri, off := w.offset(i)
		p := &patient{i: i, id: fmt.Sprintf("p%04d", i), rec: recs[ri], recIdx: ri, off: off}
		r.pats[i] = p
		idx[p.id] = i
	}
	r.ev = &eventLog{idx: idx, pats: r.pats}
	r.ev.reserve(1 << 12)
	var err error
	if w.shards > 0 {
		r.sys, err = newCluster(w, r.ev.deliver)
	} else {
		r.sys, err = newLocal(w, procs, r.ev.sink)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range r.pats {
		if p.h, err = r.sys.open(p.id); err != nil {
			r.sys.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *runner) close() {
	for _, p := range r.pats {
		if p.h != nil {
			p.h.Close()
		}
	}
	r.sys.close()
}

// push ships one batch, retrying backpressure (which block admission
// only returns after a 10 s stall).
func (r *runner) push(p *patient, c0, c1 []float64, audit bool) {
	for {
		var err error
		if audit {
			err = p.h.PushAudit(c0, c1)
		} else {
			err = p.h.Push(c0, c1)
		}
		if errors.Is(err, serve.ErrBackpressure) {
			p.bpRetries++
			continue
		}
		if err != nil {
			p.errs++
		}
		return
	}
}

// pushSecond sends the patient's next generator second — through the
// device-side prefilter when the patient runs one — and returns when the
// push returned (ns).
func (r *runner) pushSecond(p *patient) int64 {
	s := p.next
	p.next++
	src0, src1 := p.rec.second((p.off + s) % r.w.cycle())
	ship, audit := true, false
	tracing := r.trace.Load()
	if p.pf != nil {
		var t0 int64
		if tracing {
			t0 = now()
		}
		act := p.pf.Decide(src0, src1)
		if tracing {
			p.decideNs = append(p.decideNs, now()-t0)
		}
		if act.Flush.Windows > 0 {
			if err := p.h.PushDigest(act.Flush); err != nil {
				p.errs++
			}
			p.digests++
			r.record(p, frame{kind: frameDigest, sec: int32(s), d: act.Flush})
		}
		ship, audit = act.Ship, act.Audit
	}
	if !ship && !audit {
		return now()
	}
	c0, c1 := p.slot()
	copy(c0, src0)
	copy(c1, src1)
	t0 := now()
	r.push(p, c0, c1, audit)
	t1 := now()
	if audit {
		p.audits++
		r.record(p, frame{kind: frameAudit, sec: int32(s)})
		return t1
	}
	p.pushes++
	p.admitted = append(p.admitted, int32(s))
	if tracing {
		p.pushNs = append(p.pushNs, t1-t0)
		r.tr.add(spanPush, psID(p.i, s), spanNone, t0, t1)
	}
	return t1
}

// record keeps a frame sent from the prefilter declarations on for
// uplink pricing and the wire replay; pushes are kept as the admitted
// stream instead.
func (r *runner) record(p *patient, f frame) {
	if r.timed {
		p.frames = append(p.frames, f)
	}
}

func (r *runner) confirm(p *patient) {
	p.nConfirms++
	r.record(p, frame{kind: frameConfirm, sec: int32(p.next - 1)})
	p.confirms = append(p.confirms, confirmRec{admitted: len(p.admitted), seq: int64(len(p.confirms) + 1), timed: r.latPhase})
	for {
		t0 := now()
		err := p.h.Confirm()
		if errors.Is(err, serve.ErrBackpressure) {
			p.bpRetries++
			continue
		}
		if err != nil {
			p.errs++
			p.confirms = p.confirms[:len(p.confirms)-1]
			return
		}
		p.confirmAt = t0
		if r.trace.Load() {
			r.tr.add(spanConfirm, psID(p.i, p.next-1), spanNone, t0, now())
		}
		p.waiting = true
		return
	}
}

// poll resolves a waiting patient once its retrain has published (or
// failed); it reports whether the patient may stream on.
func (r *runner) poll(p *patient) bool {
	if p.retrainErr.Load() {
		p.retrainErr.Store(false)
		p.waiting = false
		return true
	}
	v := p.updVersion.Load()
	if v <= p.lastVersion {
		return false
	}
	recv := p.updRecv.Load()
	lat := recv - p.confirmAt
	c := p.confirms[len(p.confirms)-1]
	if r.trace.Load() {
		r.tr.add(spanModelUpdated, psID(p.i, p.next-1), spanConfirm, p.confirmAt, recv)
	}
	m, mv := r.sys.model(p.id)
	r.mu.Lock()
	r.led.check(m != nil && mv == v, "model read back at the announced version")
	if c.timed {
		r.retrains = append(r.retrains, lat)
	}
	r.mu.Unlock()
	p.models = append(p.models, modelSwitch{from: len(p.admitted), model: m})
	p.lastVersion = v
	p.waiting = false
	return true
}

// step advances one patient by one second (or resolves its wait) and
// reports whether anything happened.
func (r *runner) step(p *patient, confirms bool) bool {
	if p.waiting {
		return r.poll(p)
	}
	pos := (p.off + p.next) % r.w.cycle()
	r.pushSecond(p)
	if confirms && r.w.isConfirmPoint(pos) {
		r.confirm(p)
	}
	return true
}

// closedLoop runs up to procs producers, each owning every procs-th
// patient and pushing round-robin as fast as admission allows, until
// stop reports true or every patient is done.
func (r *runner) closedLoop(stop func() bool, confirms bool, done func(*patient) bool) {
	var wg sync.WaitGroup
	for g := 0; g < r.procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop() {
				active, progressed := false, false
				for i := g; i < len(r.pats); i += r.procs {
					p := r.pats[i]
					if done != nil && done(p) {
						continue
					}
					active = true
					if r.step(p, confirms) {
						progressed = true
					}
				}
				if !active {
					return
				}
				if !progressed {
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(g)
	}
	wg.Wait()
}

// warmUp streams every patient up to its first confirm point, confirms,
// and waits for the personal model — the untimed part of set-up that
// trains every detector through its own confirm→retrain path.
func (r *runner) warmUp() {
	r.closedLoop(func() bool { return false }, true, func(p *patient) bool {
		return len(p.models) > 0 && !p.waiting
	})
}

// stagger streams patient i a further i·gap/N seconds (no confirm
// point lies within one gap of the warm-up's), spreading the patients'
// seizure cycles — and the confirmations that follow them — evenly over
// the open loop instead of in lockstep.
func (r *runner) stagger() {
	n := len(r.pats)
	for _, p := range r.pats {
		p.target = p.next + p.i*int(r.w.gap)/n
	}
	r.closedLoop(func() bool { return false }, false, func(p *patient) bool { return p.next >= p.target })
}

// flushDigests sends every prefiltering patient's pending digest so the
// suppressed windows are accounted.
func (r *runner) flushDigests() {
	for _, p := range r.pats {
		if p.pf == nil {
			continue
		}
		if d := p.pf.Final(); d.Windows > 0 {
			if err := p.h.PushDigest(d); err != nil {
				p.errs++
			}
			p.digests++
			r.record(p, frame{kind: frameDigest, sec: int32(p.next - 1), d: d})
		}
	}
}

func (r *runner) expected() (classified, suppressed uint64) {
	for _, p := range r.pats {
		classified += p.expectedWindows()
		if p.pf != nil {
			suppressed += p.pf.Suppressed()
		}
	}
	return
}

// drain waits until the system has accounted every window the
// generator sent and checks the accounting is exact.
func (r *runner) drain(what string) {
	r.flushDigests()
	wantC, wantS := r.expected()
	var st serve.Stats
	ok := waitFor(60*time.Second, func() bool {
		st = r.sys.stats()
		return st.Windows >= wantC && st.WindowsSuppressed >= wantS
	})
	if ok {
		time.Sleep(2 * time.Millisecond)
		st = r.sys.stats()
	}
	exact := st.Windows == wantC && st.WindowsSuppressed == wantS
	r.led.check(exact, "window accounting ("+what+")")
	if !exact {
		fmt.Printf("# %s: windows %d/%d suppressed %d/%d\n", what, st.Windows, wantC, st.WindowsSuppressed, wantS)
	}
}

// settle waits for every patient still waiting on a retrain.
func (r *runner) settle() {
	ok := waitFor(60*time.Second, func() bool {
		pending := false
		for _, p := range r.pats {
			if p.waiting && !r.poll(p) {
				pending = true
			}
		}
		return !pending
	})
	r.led.check(ok, "every confirmation retrained")
}

// armPrefilters gives the workload's gated patients a device-side
// prefilter. Declared after warm-up: the device streams at full rate
// until its personal model exists, then gates.
func (r *runner) armPrefilters() error {
	r.windowsAtArm = r.sys.stats().Windows
	if r.w.fullRateEvery == 0 {
		return nil
	}
	for _, p := range r.pats {
		if p.i%r.w.fullRateEvery == 0 {
			continue
		}
		pf, err := serve.NewPrefilterClient(prefilterConfig())
		if err != nil {
			return err
		}
		if err := p.h.DeclarePrefilter(pf.Declared()); err != nil {
			return err
		}
		r.record(p, frame{kind: frameDecl, sec: int32(p.next)})
		p.pf = pf
		p.armedAt = p.next
	}
	return nil
}

// reserve sizes the per-second bookkeeping for the timed phases up
// front, so the generator does not allocate while it measures the
// system's allocation rate.
func (r *runner) reserve(unpaced, open time.Duration) {
	const maxRate = 60000 // admitted seconds per second the unpaced phase reaches on two CPUs
	n := float64(len(r.pats))
	perOpen := int(r.w.rate*open.Seconds()/n*1.1) + 16
	perAll := perOpen + int(maxRate*unpaced.Seconds()/n)
	for _, p := range r.pats {
		p.timedFrom = len(p.admitted)
		p.admitted = append(make([]int32, 0, len(p.admitted)+perAll), p.admitted...)
		p.due = make([]int64, 0, perOpen)
		p.pushRet = make([]int64, 0, perOpen)
	}
	r.ev.reserve(len(r.pats) * perAll / 2)
}

// uplinkFrames returns the patient's frames from the prefilter
// declarations on: its timed-phase pushes, then its declaration,
// digests, audit samples and confirmations.
func (p *patient) uplinkFrames() []frame {
	out := make([]frame, 0, len(p.admitted)-p.timedFrom+len(p.frames))
	for _, s := range p.admitted[p.timedFrom:] {
		out = append(out, frame{kind: framePush, sec: s})
	}
	return append(out, p.frames...)
}

// connCounts returns the router's socket writes and bytes so far.
func (r *runner) connCounts() (writes, bytes uint64) {
	if cs, ok := r.sys.(*clusterSystem); ok {
		return cs.conns.writes.Load(), cs.conns.bytes.Load()
	}
	return 0, 0
}

// phaseStats brackets a timed phase.
type phaseStats struct {
	wall      time.Duration
	accounted uint64 // classified + suppressed windows
	cpu       time.Duration
	alloc     uint64
	gcPause   time.Duration
	rates     []float64 // windows/s per slice
	cpuPer    []float64 // CPU µs per window per slice
	seconds   uint64    // patient-seconds generated
}

func (r *runner) accounted() uint64 {
	st := r.sys.stats()
	return st.Windows + st.WindowsSuppressed
}

func (r *runner) generated() uint64 {
	var n uint64
	for _, p := range r.pats {
		n += uint64(p.next)
	}
	return n
}

// unpacedSlices is how many equal slices the unpaced phase is cut into;
// their rates are printed as quartiles beside the whole-phase rate.
const unpacedSlices = 8

// unpaced is the closed-loop capacity phase.
func (r *runner) unpaced(d time.Duration) phaseStats {
	var ps phaseStats
	a0, g0 := r.accounted(), r.generated()
	m0 := readMem()
	c0 := cpuTime()
	t0 := time.Now()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		r.closedLoop(stop.Load, r.w.confirmAll, nil)
		close(done)
	}()
	last, lastT, lastC := a0, t0, c0
	for q := 1; q <= unpacedSlices; q++ {
		time.Sleep(time.Until(t0.Add(d * time.Duration(q) / unpacedSlices)))
		if q == unpacedSlices {
			stop.Store(true)
			<-done
			r.drain("unpaced")
		}
		a, t, c := r.accounted(), time.Now(), cpuTime()
		if a > last {
			ps.rates = append(ps.rates, float64(a-last)/t.Sub(lastT).Seconds())
			ps.cpuPer = append(ps.cpuPer, float64((c-lastC).Nanoseconds())/1e3/float64(a-last))
		}
		last, lastT, lastC = a, t, c
	}
	ps.wall = time.Since(t0)
	ps.cpu = cpuTime() - c0
	m1 := readMem()
	ps.alloc = m1.TotalAlloc - m0.TotalAlloc
	ps.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	ps.accounted = r.accounted() - a0
	ps.seconds = r.generated() - g0
	r.settle()
	return ps
}

// openStats are the open-loop phase's raw samples.
type openStats struct {
	phaseStats
	late                  []float64 // generator lateness, ms
	depthT                []float64
	depth                 []float64
	skipped               uint64 // slots whose patient was waiting on a retrain
	offered               uint64
	alarmsLat             []float64 // ms
	deliver               []float64 // ms, Event.Time → receipt
	lag                   []float64 // ms, completing Push return → Event.Time
	connWrites, connBytes uint64    // router socket writes during the phase
	gcs                   uint32    // GC cycles during the phase
}

// probeRate is how often, per wall second, a workload without
// confirmations of its own confirms one patient in the open loop's
// last probeShare.
const (
	probeRate  = 50
	probeShare = 1.0 / 3
)

// openLoop offers the workload's fixed rate: slot i is due at
// t0 + i/rate and goes to patient i mod N. One generator goroutine
// sleeps until each slot is due.
func (r *runner) openLoop(d time.Duration) openStats {
	var os openStats
	r.latPhase = true
	defer func() { r.latPhase = false }()
	for _, p := range r.pats {
		p.openFirst = p.next
		p.due = p.due[:0]
		p.pushRet = p.pushRet[:0]
	}
	alarms0 := r.ev.alarmCount()
	a0, g0 := r.accounted(), r.generated()
	w0, b0 := r.connCounts()
	c0 := cpuTime()
	m0 := readMem()
	period := float64(time.Second) / r.w.rate
	start := now() + int64(time.Millisecond)
	end := start + int64(d)
	// Workloads without confirmations of their own probe retrain
	// latency in the last probeShare of the phase: one patient at a time
	// confirms, at most probeRate times a second, and waits for its
	// model while the others stream on. A retrain holds a CPU for
	// milliseconds, so alarms due in the probe stretch are left out of
	// the alarm latencies, and the generator's lateness and backlog —
	// the validity of those latencies — are judged before it.
	probeGap := int64(time.Second / probeRate)
	probeFrom := end - int64(float64(d)*probeShare)
	if r.w.confirmAll {
		probeFrom = end
	}
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case t := <-tk.C:
				if t.UnixNano() >= probeFrom {
					return
				}
				os.depthT = append(os.depthT, float64(t.UnixNano()-start)/1e9)
				os.depth = append(os.depth, float64(r.sys.depth()))
			}
		}
	}()
	tracing := r.trace.Load()
	n := len(r.pats)
	var probe *patient
	var probeAt int64
	os.late = make([]float64, 0, int(r.w.rate*d.Seconds())+1)
	for i := 0; ; i++ {
		due := start + int64(float64(i)*period)
		if due >= end {
			break
		}
		if wait := due - now(); wait > 20_000 {
			time.Sleep(time.Duration(wait))
		}
		os.offered++
		p := r.pats[i%n]
		if p.waiting && !r.poll(p) {
			os.skipped++
			continue
		}
		t0 := now()
		if due < probeFrom {
			os.late = append(os.late, float64(t0-due)/1e6)
		}
		s := p.next
		pos := (p.off + s) % r.w.cycle()
		p.due = append(p.due, due)
		ret := r.pushSecond(p)
		p.pushRet = append(p.pushRet, ret)
		if tracing {
			r.tr.add(spanDue, psID(p.i, s), spanNone, due, t0)
		}
		switch {
		case r.w.confirmAll:
			if r.w.isConfirmPoint(pos) {
				r.confirm(p)
			}
		case due >= probeFrom && due >= probeAt+probeGap &&
			(probe == nil || probe.updVersion.Load() > probe.lastVersion || probe.retrainErr.Load()):
			r.confirm(p)
			probe, probeAt = p, due
		}
	}
	close(stopSampler)
	<-samplerDone
	os.wall = time.Duration(now() - start)
	r.drain("open loop")
	os.cpu = cpuTime() - c0
	m1 := readMem()
	os.alloc = m1.TotalAlloc - m0.TotalAlloc
	os.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	os.gcs = m1.NumGC - m0.NumGC
	os.accounted = r.accounted() - a0
	os.seconds = r.generated() - g0
	w1, b1 := r.connCounts()
	os.connWrites, os.connBytes = w1-w0, b1-b0
	r.settle()
	// Join every alarm raised by an open-loop second to that second's
	// due time, in due order (the order the latency slices cut).
	type joined struct{ due, recv, ev, ret int64 }
	var js []joined
	all := r.ev.takeAlarms()
	for _, a := range all[alarms0:] {
		p := r.pats[a.p]
		s, ok := completingSecond(a.streamTime, 1, winHops, p.admitted)
		if !ok {
			continue
		}
		k := s - p.openFirst
		if k < 0 || k >= len(p.due) || p.due[k] >= probeFrom {
			continue
		}
		js = append(js, joined{due: p.due[k], recv: a.recv, ev: a.evTime, ret: p.pushRet[k]})
		if tracing {
			r.tr.add(spanAlarm, psID(p.i, s), spanPush, a.evTime, a.recv)
		}
	}
	sort.Slice(js, func(i, j int) bool { return js[i].due < js[j].due })
	for _, j := range js {
		os.alarmsLat = append(os.alarmsLat, float64(j.recv-j.due)/1e6)
		os.deliver = append(os.deliver, float64(j.recv-j.ev)/1e6)
		os.lag = append(os.lag, float64(j.ev-j.ret)/1e6)
	}
	return os
}

// checkFailures reads the system's loss counters into the ledger.
func (r *runner) checkFailures() {
	st := r.sys.stats()
	cs := r.sys.clientStats()
	var ops, errs, retries uint64
	for _, p := range r.pats {
		ops += p.pushes + p.audits + p.digests + p.nConfirms
		errs += p.errs
		retries += p.bpRetries
	}
	for _, p := range r.pats {
		if p.pf != nil {
			ops++ // prefilter declaration
		}
	}
	r.led.ops(ops)
	r.led.fail("push/confirm errors", errs)
	// Rejected-then-retried pushes and confirms are not losses. Over
	// TCP the router's counters include the shards' own, and a shard's
	// rejections are retried by its connection handler (flow control).
	rejected := cs.BatchesDropped + cs.ConfirmsRejected
	if r.w.shards > 0 {
		rejected -= st.BatchesDropped + st.ConfirmsRejected
	}
	if rejected > retries {
		r.led.fail("dropped batches", rejected-retries)
	}
	r.led.fail("shed batches", cs.BatchesShed+r.ev.shed.Load())
	r.led.fail("lost confirms", cs.ConfirmsDropped)
	r.led.fail("dropped events", cs.EventsDropped)
	r.led.fail("retrain errors", st.RetrainErrors+r.ev.retrainE.Load())
	r.led.fail("store errors", st.StoreErrors)
	r.led.fail("stream errors", st.StreamErrors)
	r.led.fail("events for unknown patients", r.ev.unknown.Load())
	var confirms uint64
	for _, p := range r.pats {
		confirms += uint64(len(p.confirms))
	}
	r.led.check(st.Retrains == confirms && st.Confirms == confirms, "retrains equal confirms")
	if st.Retrains != confirms {
		fmt.Printf("# retrains %d confirms %d (server %d)\n", st.Retrains, confirms, st.Confirms)
	}
}

// alarmTimes returns each patient's observed alarm stream times, sorted.
func (r *runner) alarmTimes() [][]float64 {
	out := make([][]float64, len(r.pats))
	for _, a := range r.ev.takeAlarms() {
		out[a.p] = append(out[a.p], a.streamTime)
	}
	for _, ts := range out {
		sort.Float64s(ts)
	}
	return out
}

func psID(p, s int) uint64 { return uint64(p)<<32 | uint64(uint32(s)) }

func now() int64 { return time.Now().UnixNano() }
