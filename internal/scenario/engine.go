package scenario

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sync"
	"time"

	"selflearn/internal/cluster"
	"selflearn/internal/eval"
	"selflearn/internal/rt"
	"selflearn/internal/serve"
	"selflearn/internal/signal"
	"selflearn/internal/wire"
)

// Backend is the serving surface the engine replays against. The local
// implementation wraps an in-process serve.Server; cmd/loadgen supplies
// one wrapping a cluster.Router so the same scenarios drive a shardd
// fleet over TCP.
type Backend interface {
	Open(patient string) (Handle, error)
	Snapshot() serve.Stats
}

// Handle is one patient's stream handle. serve.Stream and
// cluster.Stream both satisfy it. The engine retries backpressure and
// shard outages (see retry); any other error aborts the scenario.
type Handle interface {
	Push(c0, c1 []float64) error
	Confirm() error
	Close()
}

// PrefilterHandle is the uplink surface of the edge/cloud split — the
// optional extension a Handle implements to carry prefilter traffic.
// serve.Stream and cluster.Stream both satisfy it; the engine requires
// it only when the spec declares a prefilter.
type PrefilterHandle interface {
	Handle
	DeclarePrefilter(serve.PrefilterConfig) error
	PushDigest(serve.Digest) error
	PushAudit(c0, c1 []float64) error
}

// Collector accumulates the event-side outcomes of a run: per-patient
// alarm stream times (Event.StreamTime — the deterministic clock
// detections are scored on), per-patient model versions (the retrain
// barrier), and quality rejections. Feed it every event, either as a
// synchronous sink (local) or by draining an Events channel (cluster).
type Collector struct {
	mu       sync.Mutex
	alarms   map[string][]float64
	versions map[string]uint64
	total    uint64
	rejects  uint64
	drifts   uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{alarms: map[string][]float64{}, versions: map[string]uint64{}}
}

// Observe records one event. Safe for concurrent use; fast enough for a
// serve.WithEventSink.
func (c *Collector) Observe(ev serve.Event) {
	switch ev.Kind {
	case serve.EventAlarm:
		c.mu.Lock()
		c.alarms[ev.Patient] = append(c.alarms[ev.Patient], ev.StreamTime)
		c.total++
		c.mu.Unlock()
	case serve.EventModelUpdated:
		c.mu.Lock()
		if ev.Version > c.versions[ev.Patient] {
			c.versions[ev.Patient] = ev.Version
		}
		c.mu.Unlock()
	case serve.EventQualityReject:
		c.mu.Lock()
		c.rejects++
		c.mu.Unlock()
	case serve.EventPrefilterDrift:
		c.mu.Lock()
		c.drifts++
		c.mu.Unlock()
	}
}

// DriftEvents returns the number of EventPrefilterDrift events observed
// — the event-side cross-check of Stats.PrefilterDrift.
func (c *Collector) DriftEvents() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drifts
}

// AlarmTimes returns a copy of the patient's alarm stream times.
func (c *Collector) AlarmTimes(patient string) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.alarms[patient]...)
}

// Trained returns the number of patients observed reaching model
// version 1 or later — retrain evidence that survives the death of the
// shard that did the training.
func (c *Collector) Trained() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, v := range c.versions {
		if v >= 1 {
			n++
		}
	}
	return n
}

// TotalAlarms returns the number of alarm events observed.
func (c *Collector) TotalAlarms() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// WaitVersion blocks until the patient's model version reaches v — the
// confirm barrier that makes retraining deterministic: no batch pushed
// after it can race the model install.
func (c *Collector) WaitVersion(patient string, v uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout) //selflearn:wallclock-ok operational wait deadline, not replay state
	for {
		c.mu.Lock()
		cur := c.versions[patient]
		c.mu.Unlock()
		if cur >= v {
			return nil
		}
		if time.Now().After(deadline) { //selflearn:wallclock-ok operational wait deadline, not replay state
			return fmt.Errorf("scenario: %s never reached model version %d (at %d)", patient, v, cur)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// admittedMask mirrors the serving path's quality prefilter client-side:
// one bool per stream second, true when the batch would be admitted.
// The mirror must agree with serve.QualityPrefilter exactly — including
// failing open on assessment errors — because ground truth is mapped
// through it into admitted stream time.
func admittedMask(ps PatientStream, fs float64, q *signal.QualityConfig) []bool {
	n := len(ps.C0) / int(fs)
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
		if q == nil {
			continue
		}
		lo, hi := i*int(fs), (i+1)*int(fs)
		for _, ch := range [][]float64{ps.C0[lo:hi], ps.C1[lo:hi]} {
			if r, err := signal.AssessChannel(ch, fs, *q); err == nil && !r.OK {
				mask[i] = false
				break
			}
		}
	}
	return mask
}

// admittedTime maps a stream time into admitted (post-prefilter) stream
// time: the clock the feature windows — and therefore the alarms — run
// on. prefix[i] is the number of admitted seconds before second i.
func admittedTime(t float64, mask []bool, prefix []int) float64 {
	sec := int(t)
	if sec >= len(mask) {
		return float64(prefix[len(mask)])
	}
	if mask[sec] {
		return float64(prefix[sec]) + (t - float64(sec))
	}
	return float64(prefix[sec])
}

// prefilterPlan is one patient's precomputed on-device replay: the
// stage-1 gate's verdict for every stream second, the trailing digest,
// and the resulting audit counters. Precomputing keeps Run's accounting
// exact — expected suppression and sample counts are known before the
// first push — and hands the witness test the gate mask that maps
// ground truth into admitted stream time.
type prefilterPlan struct {
	decl       serve.PrefilterConfig
	actions    []serve.PrefilterAction
	final      serve.Digest
	ship       []bool
	suppressed uint64
	samples    uint64
}

// buildPrefilterPlan replays the patient's seconds through a fresh
// stage-1 client — mistuned when the spec sets up the negative control.
func buildPrefilterPlan(ps PatientStream, fs int, p *PrefilterSpec) (*prefilterPlan, error) {
	client, err := serve.NewMistunedPrefilterClient(p.Config(), p.ActualGate())
	if err != nil {
		return nil, err
	}
	seconds := len(ps.C0) / fs
	plan := &prefilterPlan{
		decl:    client.Declared(),
		actions: make([]serve.PrefilterAction, seconds),
		ship:    make([]bool, seconds),
	}
	for sec := 0; sec < seconds; sec++ {
		lo := sec * fs
		a := client.Decide(ps.C0[lo:lo+fs], ps.C1[lo:lo+fs])
		plan.actions[sec] = a
		plan.ship[sec] = a.Ship
	}
	plan.final = client.Final()
	plan.suppressed = client.Suppressed()
	plan.samples = client.Samples()
	return plan, nil
}

// uplinkMeter prices one patient's uplink in wire-protocol bytes by
// encoding the exact frames a v5 connection would carry into a discard
// writer. The meter measures the protocol, not one transport's socket,
// so local and cluster runs report the same number for the same spec —
// and the prefilter-off baseline is priced with the identical ruler.
// io.Discard cannot fail, so encode errors are impossible here.
type uplinkMeter struct {
	enc *wire.Encoder
}

func newUplinkMeter() *uplinkMeter { return &uplinkMeter{enc: wire.NewEncoder(io.Discard)} }

func (m *uplinkMeter) push(patient string, c0, c1 []float64) { _ = m.enc.Push(patient, c0, c1) }

func (m *uplinkMeter) digest(patient string, d serve.Digest) {
	if d.Windows == 0 {
		return
	}
	_ = m.enc.PushDigest(patient, d)
}

func (m *uplinkMeter) audit(patient string, c0, c1 []float64) { _ = m.enc.AuditPush(patient, c0, c1) }

func (m *uplinkMeter) declare(patient string, cfg serve.PrefilterConfig) {
	_ = m.enc.PrefilterDecl(patient, cfg)
}

func (m *uplinkMeter) confirm(patient string) { _ = m.enc.Confirm(patient) }

func (m *uplinkMeter) bytes() uint64 { return m.enc.BytesWritten() }

// Run replays the workload against the backend and scores the alarms
// the collector gathered. The collector must already be receiving the
// backend's events (sink or channel drain) before Run is called.
func (w *Workload) Run(b Backend, c *Collector) (*Result, error) {
	spec := w.Spec
	fs := int(w.SampleRate)

	var plans []*prefilterPlan
	if spec.Prefilter != nil {
		plans = make([]*prefilterPlan, len(w.Streams))
		for i, ps := range w.Streams {
			p, err := buildPrefilterPlan(ps, fs, spec.Prefilter)
			if err != nil {
				return nil, err
			}
			plans[i] = p
		}
	}

	masks := make([][]bool, len(w.Streams))
	prefixes := make([][]int, len(w.Streams))
	var expWindows, expRejects, expSuppressed, expSamples uint64
	var streamSeconds, admittedSeconds int
	for i, ps := range w.Streams {
		masks[i] = admittedMask(ps, w.SampleRate, spec.Quality)
		if plans != nil {
			// Stage 1 runs before the shard's quality gate: a suppressed
			// second never reaches it, so it is neither admitted nor a
			// quality rejection.
			for s := range masks[i] {
				masks[i][s] = masks[i][s] && plans[i].ship[s]
			}
			expSuppressed += plans[i].suppressed
			expSamples += plans[i].samples
		}
		prefix := make([]int, len(masks[i])+1)
		admitted := 0
		for s, ok := range masks[i] {
			prefix[s] = admitted
			if ok {
				admitted++
			} else if plans == nil || plans[i].ship[s] {
				expRejects++
			}
		}
		prefix[len(masks[i])] = admitted
		prefixes[i] = prefix
		streamSeconds += len(masks[i])
		admittedSeconds += admitted
		// 4 s windows on a 1 s hop: the first window completes on the
		// fourth admitted second.
		if admitted > 3 {
			expWindows += uint64(admitted - 3)
		}
	}

	// A remote fleet's counters are cumulative across loadgen runs, so
	// account everything against the delta from here. On a fresh local
	// server the baseline is zero and this is the identity.
	base := b.Snapshot()

	var wg sync.WaitGroup
	errs := make([]error, len(w.Streams))
	meters := make([]*uplinkMeter, len(w.Streams))
	for i := range w.Streams {
		meters[i] = newUplinkMeter()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var plan *prefilterPlan
			if plans != nil {
				plan = plans[i]
			}
			errs[i] = w.runPatient(b, c, w.Streams[i], fs, plan, meters[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var expRetrains uint64
	if spec.Confirm {
		for _, ps := range w.Streams {
			if len(ps.Truth) > 0 {
				expRetrains++
			}
		}
	}
	st, err := awaitDrain(b, base, c, spec.Admission == "block", expWindows, expRejects, expRetrains, expSuppressed, expSamples)
	if err != nil {
		return nil, err
	}

	var uplink uint64
	for _, m := range meters {
		uplink += m.bytes()
	}
	res := &Result{
		Name:            spec.Name,
		Seed:            spec.Seed,
		Patients:        spec.Patients,
		Source:          w.Source,
		StreamSeconds:   float64(streamSeconds),
		AdmittedSeconds: float64(admittedSeconds),
		Windows:         st.Windows,
		QualityRejected: st.QualityRejected,
		Shed:            st.BatchesShed,
		Dropped:         st.BatchesDropped,
		Retrains:        st.Retrains,
		Alarms:          st.Alarms,

		UplinkBytes:        uplink,
		SuppressedWindows:  st.WindowsSuppressed,
		AuditSamples:       st.AuditSamples,
		AuditDisagreements: st.AuditDisagreements,
		DriftEvents:        st.PrefilterDrift,
	}
	var total eval.DetectionMetrics
	for i, ps := range w.Streams {
		truth := ps.Truth
		if spec.Confirm && len(truth) > 0 {
			// The first seizure trained the detector; scoring it would
			// credit the model with the event it learned from.
			truth = truth[1:]
		}
		mapped := make([]signal.Interval, len(truth))
		for k, iv := range truth {
			mapped[k] = signal.Interval{
				Start: admittedTime(iv.Start, masks[i], prefixes[i]),
				End:   admittedTime(iv.End, masks[i], prefixes[i]),
			}
		}
		dm := eval.ScoreDetections(c.AlarmTimes(ps.ID), mapped, spec.Tolerance, float64(prefixes[i][len(masks[i])]))
		total = eval.Merge(total, dm)
	}
	res.Events = total.Events
	res.Detected = total.Detected
	res.Sensitivity = total.Sensitivity
	res.FalseAlarms = total.FalseAlarms
	res.FalseAlarmsPerHour = total.FalseAlarmsPerHour
	return res, nil
}

// runPatient replays one patient's stream in one-second batches:
// churn-segmented handle lifecycle, backpressure retries, the confirm
// barrier after the first seizure, and — when the spec declares a
// prefilter — the precomputed on-device gate verdicts. Every frame that
// crosses the backend is priced into the meter.
func (w *Workload) runPatient(b Backend, c *Collector, ps PatientStream, fs int, plan *prefilterPlan, meter *uplinkMeter) error {
	spec := w.Spec
	seconds := len(ps.C0) / fs
	h, err := b.Open(ps.ID)
	if err != nil {
		return err
	}
	defer func() { h.Close() }()

	var pf PrefilterHandle
	if plan != nil {
		var ok bool
		if pf, ok = h.(PrefilterHandle); !ok {
			return fmt.Errorf("scenario: backend handle %T cannot carry prefilter traffic", h)
		}
		// Declared exactly once: a re-declaration after churn would reset
		// the shard's audit state (mirror baseline, disagreement count)
		// mid-run, while the server-side session survives reopens.
		if err := retry(func() error { return pf.DeclarePrefilter(plan.decl) }); err != nil {
			return fmt.Errorf("scenario: %s declare: %w", ps.ID, err)
		}
		meter.declare(ps.ID, plan.decl)
	}

	confirmAt := -1
	if spec.Confirm && len(ps.Truth) > 0 {
		confirmAt = int(math.Ceil(ps.Truth[0].End)) + 10
		if confirmAt >= seconds {
			confirmAt = seconds - 1
		}
	}
	segment := seconds
	if spec.Churn.Reopens > 0 {
		segment = seconds / (spec.Churn.Reopens + 1)
		if segment < 1 {
			segment = 1
		}
	}
	for sec := 0; sec < seconds; sec++ {
		if sec > 0 && sec%segment == 0 && spec.Churn.Reopens > 0 {
			// Handle churn: the gateway reconnects; the server-side
			// session (streamer state, model, history) must survive.
			h.Close()
			if h, err = b.Open(ps.ID); err != nil {
				return err
			}
			if plan != nil {
				var ok bool
				if pf, ok = h.(PrefilterHandle); !ok {
					return fmt.Errorf("scenario: backend handle %T cannot carry prefilter traffic", h)
				}
			}
		}
		lo := sec * fs
		c0b, c1b := ps.C0[lo:lo+fs], ps.C1[lo:lo+fs]
		if plan == nil {
			if err := retry(func() error { return h.Push(c0b, c1b) }); err != nil {
				return fmt.Errorf("scenario: %s second %d: %w", ps.ID, sec, err)
			}
			meter.push(ps.ID, c0b, c1b)
		} else if err := pushGated(pf, ps.ID, sec, c0b, c1b, plan.actions[sec], meter); err != nil {
			return err
		}
		if sec == confirmAt {
			if err := retry(h.Confirm); err != nil {
				return fmt.Errorf("scenario: %s confirm: %w", ps.ID, err)
			}
			meter.confirm(ps.ID)
			if err := c.WaitVersion(ps.ID, 1, 90*time.Second); err != nil {
				return err
			}
		}
		if w.Speed > 0 {
			interval := float64(time.Second) / w.Speed
			if p := spec.Wave.Period; p >= 1 {
				// Diurnal trough: half rate through the second half of
				// each wave period, phase-shifted per patient so the
				// backend sees a rolling wave, not synchronized bursts.
				if math.Mod(float64(sec)+wavePhase(ps.ID, p), p) >= p/2 {
					interval *= 2
				}
			}
			time.Sleep(time.Duration(interval))
		}
	}
	if plan != nil && plan.final.Windows > 0 {
		if err := retry(func() error { return pf.PushDigest(plan.final) }); err != nil {
			return fmt.Errorf("scenario: %s final digest: %w", ps.ID, err)
		}
		meter.digest(ps.ID, plan.final)
	}
	return nil
}

// pushGated replays one second through the on-device gate's verdict:
// the completed digest flushes first (the shard's mirror consumes
// amplitudes in stream order), then the batch crosses as a full push,
// an audit sample, or not at all.
func pushGated(pf PrefilterHandle, id string, sec int, c0, c1 []float64, a serve.PrefilterAction, meter *uplinkMeter) error {
	if a.Flush.Windows > 0 {
		if err := retry(func() error { return pf.PushDigest(a.Flush) }); err != nil {
			return fmt.Errorf("scenario: %s digest at %d: %w", id, sec, err)
		}
		meter.digest(id, a.Flush)
	}
	switch {
	case a.Ship:
		if err := retry(func() error { return pf.Push(c0, c1) }); err != nil {
			return fmt.Errorf("scenario: %s second %d: %w", id, sec, err)
		}
		meter.push(id, c0, c1)
	case a.Audit:
		if err := retry(func() error { return pf.PushAudit(c0, c1) }); err != nil {
			return fmt.Errorf("scenario: %s audit at %d: %w", id, sec, err)
		}
		meter.audit(id, c0, c1)
	}
	return nil
}

// wavePhase offsets a patient's position in the load wave, derived
// from the ID so it is stable across runs.
func wavePhase(id string, period float64) float64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return float64(h.Sum64() % uint64(period))
}

// retry runs op until it stops failing transiently: admission
// backpressure (serve.ErrBackpressure) is retried without limit at
// 1 ms — the wearable gateway's buffer-and-resend policy — and a shard
// outage (cluster.ErrShardDown, cluster.ErrNoShards: failover in
// flight) at 50 ms for up to 30 s. Any other outcome returns at once.
func retry(op func() error) error {
	var deadline time.Time
	for {
		err := op()
		switch {
		case errors.Is(err, serve.ErrBackpressure):
			deadline = time.Time{}
			time.Sleep(time.Millisecond)
		case errors.Is(err, cluster.ErrShardDown) || errors.Is(err, cluster.ErrNoShards):
			now := time.Now() //selflearn:wallclock-ok operational retry deadline, not replay state
			if deadline.IsZero() {
				deadline = now.Add(30 * time.Second)
			} else if now.After(deadline) {
				return err
			}
			time.Sleep(50 * time.Millisecond)
		default:
			return err
		}
	}
}

// awaitDrain waits until the backend has processed everything the
// scenario pushed and the collector has seen every alarm event. With
// lossless (block) admission the expected counters are exact and are
// verified; with drop/shed admission the run waits for the counters to
// go quiescent instead.
func awaitDrain(b Backend, base serve.Stats, c *Collector, exact bool, expWindows, expRejects, expRetrains, expSuppressed, expSamples uint64) (serve.Stats, error) {
	deadline := time.Now().Add(120 * time.Second) //selflearn:wallclock-ok operational drain timeout, not replay state
	var last serve.Stats
	stable := 0
	for {
		st := statsDelta(b.Snapshot(), base)
		// A dead shard takes its counters with it (a fleet snapshot sums
		// the reachable shards), so judge retraining by the best
		// surviving evidence: the counter or the patients the collector
		// saw reach a trained model version.
		if n := c.Trained(); n > st.Retrains {
			st.Retrains = n
		}
		if st.RetrainErrors > 0 || st.ConfirmsDropped > 0 {
			return st, fmt.Errorf("scenario: retrain failed or confirm lost: %d errors, %d lost", st.RetrainErrors, st.ConfirmsDropped)
		}
		caughtUp := c.TotalAlarms() >= st.Alarms && st.Retrains >= expRetrains
		if exact {
			if caughtUp && st.Windows >= expWindows && st.QualityRejected >= expRejects &&
				st.WindowsSuppressed >= expSuppressed && st.AuditSamples >= expSamples {
				if st.Windows != expWindows || st.QualityRejected != expRejects ||
					st.WindowsSuppressed != expSuppressed || st.AuditSamples != expSamples {
					return st, fmt.Errorf("scenario: drained to %d windows / %d rejects / %d suppressed / %d audits, expected exactly %d / %d / %d / %d",
						st.Windows, st.QualityRejected, st.WindowsSuppressed, st.AuditSamples,
						expWindows, expRejects, expSuppressed, expSamples)
				}
				return st, nil
			}
		} else {
			// Lossy admission: quiesce when the counters stop moving.
			if caughtUp && st.Windows == last.Windows && st.QualityRejected == last.QualityRejected &&
				st.Batches == last.Batches && st.Alarms == last.Alarms &&
				st.WindowsSuppressed == last.WindowsSuppressed && st.AuditSamples == last.AuditSamples {
				stable++
				if stable >= 20 { // ~400 ms of stillness
					return st, nil
				}
			} else {
				stable = 0
			}
			last = st
		}
		if time.Now().After(deadline) { //selflearn:wallclock-ok operational drain timeout, not replay state
			return st, fmt.Errorf("scenario: drain timed out: windows %d/%d, rejects %d/%d, retrains %d/%d",
				st.Windows, expWindows, st.QualityRejected, expRejects, st.Retrains, expRetrains)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// RunLocal builds the workload and replays it against a fresh
// in-process serve.Server configured from the spec — the path the
// pinned scenario-matrix test and cmd/loadgen's local mode use.
func RunLocal(spec Spec) (*Result, error) {
	w, err := Build(spec)
	if err != nil {
		return nil, err
	}
	c := NewCollector()
	srv, err := NewLocalServer(w, c)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	return w.Run(localBackend{srv}, c)
}

// NewLocalServer builds a serve.Server sized and configured for the
// workload, with the collector attached as a synchronous event sink
// (no event can be dropped).
func NewLocalServer(w *Workload, c *Collector) (*serve.Server, error) {
	spec := w.Spec
	cfg := serve.Config{
		Workers:            2,
		SampleRate:         w.SampleRate,
		History:            time.Duration(spec.Duration) * time.Second,
		AvgSeizureDuration: 20 * time.Second,
		AlarmCfg: rt.Config{
			VoteWindow:   5,
			VotesToRaise: 3,
			Refractory:   time.Duration(spec.Refractory * float64(time.Second)),
			Hop:          time.Second,
		},
	}
	opts := []serve.Option{serve.WithEventSink(c.Observe), serve.WithEventBuffer(4096)}
	switch spec.Admission {
	case "drop":
		opts = append(opts, serve.WithAdmission(serve.DropOnFull()))
	case "shed":
		opts = append(opts, serve.WithAdmission(serve.ShedOldest()))
	default:
		opts = append(opts, serve.WithAdmission(serve.BlockWithDeadline(0)))
	}
	if spec.Quality != nil {
		pf, err := serve.QualityPrefilter(*spec.Quality)
		if err != nil {
			return nil, err
		}
		opts = append(opts, serve.WithPrefilter(pf))
	}
	return serve.New(cfg, opts...)
}

// LocalBackend adapts an in-process server to the engine. The caller
// owns the server's lifecycle and must have routed its events into the
// run's collector (NewLocalServer wires both).
func LocalBackend(srv *serve.Server) Backend { return localBackend{srv} }

type localBackend struct{ srv *serve.Server }

func (b localBackend) Open(p string) (Handle, error) { return b.srv.Open(p) }
func (b localBackend) Snapshot() serve.Stats         { return b.srv.Snapshot() }

// statsDelta subtracts a baseline snapshot's cumulative counters so
// scenario accounting holds against fleets that served earlier runs.
// Each difference clamps at zero: a shard lost since the baseline
// takes its counters out of the later snapshot. Gauges (Sessions,
// StreamsOpen, ModelsCached, QueueDepth) pass through untouched.
func statsDelta(st, base serve.Stats) serve.Stats {
	st.SessionsCreated = clampSub(st.SessionsCreated, base.SessionsCreated)
	st.SessionsEvicted = clampSub(st.SessionsEvicted, base.SessionsEvicted)
	st.Batches = clampSub(st.Batches, base.Batches)
	st.BatchesDropped = clampSub(st.BatchesDropped, base.BatchesDropped)
	st.BatchesShed = clampSub(st.BatchesShed, base.BatchesShed)
	st.QualityRejected = clampSub(st.QualityRejected, base.QualityRejected)
	st.Windows = clampSub(st.Windows, base.Windows)
	st.Alarms = clampSub(st.Alarms, base.Alarms)
	st.Confirms = clampSub(st.Confirms, base.Confirms)
	st.ConfirmsRejected = clampSub(st.ConfirmsRejected, base.ConfirmsRejected)
	st.ConfirmsDropped = clampSub(st.ConfirmsDropped, base.ConfirmsDropped)
	st.Retrains = clampSub(st.Retrains, base.Retrains)
	st.RetrainErrors = clampSub(st.RetrainErrors, base.RetrainErrors)
	st.StreamErrors = clampSub(st.StreamErrors, base.StreamErrors)
	st.StoreErrors = clampSub(st.StoreErrors, base.StoreErrors)
	st.WindowsSuppressed = clampSub(st.WindowsSuppressed, base.WindowsSuppressed)
	st.AuditSamples = clampSub(st.AuditSamples, base.AuditSamples)
	st.AuditDisagreements = clampSub(st.AuditDisagreements, base.AuditDisagreements)
	st.PrefilterDrift = clampSub(st.PrefilterDrift, base.PrefilterDrift)
	st.EventsDropped = clampSub(st.EventsDropped, base.EventsDropped)
	return st
}

func clampSub(cur, base uint64) uint64 {
	if cur < base {
		return 0
	}
	return cur - base
}
