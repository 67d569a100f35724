// Command e2ebench is the repository's end-to-end benchmark. It drives
// the serving stack from outside, through public API only —
// serve.Server/serve.Stream in process, cluster.Serve/cluster.Router
// over loopback TCP, and serve.PrefilterClient on the device side —
// with seeded synthetic EEG, and prints one JSON result line last.
//
// Each run sets the system up several times (server or fleet up,
// streams opened, every patient's personal model trained through its
// own confirm→retrain path) and reports the median set-up time, then
// measures two phases on the last set-up: an unpaced closed loop
// (capacity and CPU per window) and an open loop at the workload's
// fixed offered rate (alarm and retrain latency). Every run checks its
// outputs: exact window accounting, retrains equal confirms, no losses,
// and every patient's alarm stream times equal a single-goroutine
// reference replay of the same inputs and models.
//
// With --trace 1 the run instead reports per-layer metrics: it times
// the calls into each layer's public functions, records spans in memory
// (written under .bench_build/traces at exit), and replays the same
// inputs and models through the layer functions in one goroutine.
//
//	go build -o e2ebench . && ./e2ebench --workload ward-inproc --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setups is how many times a run sets the system up; setup_s is their
// median and the last one serves the timed phases.
const setups = 5

// Open-loop validity bounds: past either, the phase did not offer the
// intended load and its latencies are reported as unresolved. The
// generator shares the CPUs with the system under test, so some
// lateness is contention the latencies should show; a p99 past the Go
// scheduler's 10 ms preemption slice, twice over, means the generator
// itself was starved.
const (
	maxLateP99ms = 20.0
	// maxSlopeFrac bounds backlog growth as a share of the offered rate.
	maxSlopeFrac = 0.01
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each with its spread.
type report struct {
	metrics    map[string]metric
	unresolved []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// value reports a single measured number with the samples behind it;
// a number that could not be measured (no samples) is unresolved.
func (r *report) value(name, unit string, v float64, samples []float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Printf("%-36s %14s %-10s\n", name, "unresolved", unit)
		r.unresolved = append(r.unresolved, name)
		return
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if len(samples) > 0 {
		q1, med, q3 := quartiles(samples)
		fmt.Printf("%-36s %14.4f %-10s (median %.4f  q1 %.4f  q3 %.4f  n=%d)\n", name, v, unit, med, q1, q3, len(samples))
	} else {
		fmt.Printf("%-36s %14.4f %-10s\n", name, v, unit)
	}
}

// latencySlices is how many time-ordered slices a latency distribution
// is cut into at most; its percentiles are the median over the slices.
const latencySlices = 12

// pct reports the q-percentile of time-ordered samples as the median of
// up to latencySlices per-slice percentiles, each supported. Otherwise
// — or when the phase was invalid — the metric is unresolved and left
// out of the result. An ungated percentile is printed but not put in
// the result: its run-to-run spread is too wide for a regression bound.
func (r *report) pct(name, unit string, samples []float64, q float64, valid, gated bool) {
	v, k, ok := slicedPercentile(samples, q, latencySlices)
	if !ok || !valid {
		why := "too few samples"
		if ok {
			why = "open loop invalid"
		}
		fmt.Printf("%-36s %14s %-10s (n=%d: %s)\n", name, "unresolved", unit, len(samples), why)
		if gated {
			r.unresolved = append(r.unresolved, name)
		}
		return
	}
	q1, med, q3 := quartiles(samples)
	if gated {
		r.metrics[name] = metric{Value: v, Unit: unit}
	} else {
		name += " (ungated)"
	}
	fmt.Printf("%-36s %14.4f %-10s (median of %d slices; pooled median %.4f  q1 %.4f  q3 %.4f  n=%d)\n",
		name, v, unit, k, med, q1, q3, len(samples))
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: ward-inproc, selflearn-confirm or edge-fleet-tcp")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "timed seconds per run (two fifths unpaced, three fifths open loop)")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func bench(w workload, seed int64, total time.Duration, traced bool) (*result, error) {
	procs := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); procs > n {
		procs = n
		runtime.GOMAXPROCS(n)
	}
	unpacedD := total / 2
	openD := total - unpacedD
	stamp(w, seed, procs, unpacedD, openD, traced)

	recs, err := buildRecordings(w, seed)
	if err != nil {
		return nil, err
	}
	circ, err := circularRows(w, recs)
	if err != nil {
		return nil, err
	}
	led := &ledger{}
	pushLbl := "serve.push"
	if w.shards > 0 {
		pushLbl = "cluster.push"
	}
	tr := newTracer(traced, 1<<20, pushLbl)

	// Set up several times; keep the last system for the timed phases.
	var setupS []float64
	var prevModels []string
	var r *runner
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		r, err = newRunner(w, recs, procs, tr, led)
		if err != nil {
			return nil, err
		}
		r.warmUp()
		if w.confirmAll {
			r.stagger()
		}
		r.drain("warm-up")
		setupS = append(setupS, time.Since(t0).Seconds())
		models := modelSignature(r)
		if prevModels != nil {
			same := 0
			for j := range models {
				if models[j] == prevModels[j] {
					same++
				}
			}
			led.check(same == len(models), "models identical across set-ups")
		}
		prevModels = models
		if i < setups-1 {
			r.checkFailures()
			r.close()
			runtime.GC()
		}
	}
	defer r.close()
	// The uplink is counted from the prefilter declarations on: the
	// router may still be writing them when the first phase starts.
	r.timed = true
	up0 := r.sys.uplinkBytes()
	if err := r.armPrefilters(); err != nil {
		return nil, err
	}
	r.reserve(unpacedD, openD)
	ev0 := r.ev.alarmCount()

	rep := newReport()
	fmt.Printf("# set-ups %d, patients %d\n", setups, w.patients)
	var unp, unpTraced phaseStats
	r.trace.Store(traced)
	ol := r.openLoop(openD)
	if traced {
		r.trace.Store(false)
		unp = r.unpaced(unpacedD / 2)
		r.trace.Store(true)
		unpTraced = r.unpaced(unpacedD - unpacedD/2)
	} else {
		unp = r.unpaced(unpacedD)
	}
	r.trace.Store(false)

	// Correctness: losses, retrains, and alarms against the reference.
	r.checkFailures()
	alarms := r.alarmTimes()
	rowsOf := make([][][]float64, len(r.pats))
	mismatch := 0
	for i, p := range r.pats {
		rows, err := patientRows(w, p, circ)
		if err != nil {
			return nil, err
		}
		rowsOf[i] = rows
		want, err := referenceAlarms(p, rows)
		if err != nil {
			return nil, err
		}
		ok := equalTimes(alarms[i], want)
		led.check(ok, "alarm stream times equal the reference replay")
		if !ok {
			mismatch++
			if mismatch <= 3 {
				fmt.Printf("# %s: alarms %v, reference %v\n", p.id, head(alarms[i]), head(want))
			}
		}
	}
	totalAlarms := 0
	for _, a := range alarms {
		totalAlarms += len(a)
	}
	var allocs, pushes uint64
	for _, p := range r.pats {
		allocs += p.allocs
		pushes += p.pushes + p.audits
	}
	fmt.Printf("# push buffers allocated %d for %d pushes\n", allocs, pushes)
	fmt.Printf("# alarms %d (timed %d), reference mismatches %d/%d patients\n",
		totalAlarms, totalAlarms-ev0, mismatch, len(r.pats))

	lateP99, _ := percentile(sortedCopy(ol.late), 0.99)
	depthSlope := slope(ol.depthT, ol.depth)
	valid := lateP99 <= maxLateP99ms && depthSlope <= maxSlopeFrac*w.rate
	fmt.Printf("# open loop: offered %d slots at %.0f/s, skipped %d (waiting on retrain), late p99 %.3f ms, backlog slope %.2f jobs/s, %d GC cycles, valid %v\n",
		ol.offered, w.rate, ol.skipped, lateP99, depthSlope, ol.gcs, valid)

	wc, err := replayWire(r, tr)
	if err != nil {
		return nil, err
	}
	sent := r.sys.uplinkBytes() - up0
	if w.shards > 0 {
		led.check(sent == wc.totalBytes, "router uplink bytes equal the wire replay")
		fmt.Printf("# uplink: router %d bytes, wire replay %d bytes\n", sent, wc.totalBytes)
	} else {
		// Nothing crosses a wire in process: the same frames are priced
		// by the wire replay, the bytes a device would send a shard.
		sent = wc.totalBytes
	}
	if !traced {
		endToEnd(rep, r, setupS, unp, ol, sent, valid)
	} else {
		if err := perLayer(rep, w, r, rowsOf, circ, wc, unp, unpTraced, ol, lateP99, depthSlope); err != nil {
			return nil, err
		}
		tr.printSelfTimes()
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := tr.write(path); err != nil {
			fmt.Printf("# trace not written: %v\n", err)
		} else {
			fmt.Printf("# trace written to %s\n", path)
		}
	}
	if len(rep.unresolved) > 0 {
		fmt.Printf("# unresolved (left out of the result): %s\n", strings.Join(rep.unresolved, ", "))
	}
	fmt.Printf("# failed_frac %.6f (%d of %d)", led.frac(), led.failed, led.attempted)
	for k, v := range led.reasons {
		fmt.Printf("  [%s: %d]", k, v)
	}
	fmt.Println()
	res := &result{
		Correct:   led.failed == 0,
		Attempted: led.attempted,
		Failed:    led.failed,
		Metrics:   rep.metrics,
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	return res, nil
}

// endToEnd reports the user-visible metrics of an untraced run.
func endToEnd(rep *report, r *runner, setupS []float64, unp phaseStats, ol openStats, uplink uint64, valid bool) {
	rep.value("setup_s", "s", median(setupS), setupS)
	// Whole-phase ratios: a one-second slice covers less than one
	// seizure cycle per patient, so its mix of seizure and quiet
	// seconds (full-rate and suppressed windows on edge-fleet-tcp)
	// moves its rate far more than the host does.
	rep.value("windows_per_s", "windows/s", float64(unp.accounted)/unp.wall.Seconds(), unp.rates)
	rep.value("cpu_us_per_window", "us", float64(unp.cpu.Nanoseconds())/1e3/float64(unp.accounted), unp.cpuPer)
	// Latencies are printed with their sample counts but not gated: on a
	// shared two-CPU VM their run-to-run spread on edge-fleet-tcp, whose
	// path crosses loopback TCP twice, reached 0.7-1.2 of the median
	// across ten seeds (past any usable regression bound).
	rep.pct("alarm_p50_ms", "ms", ol.alarmsLat, 0.50, valid, false)
	rep.pct("alarm_p90_ms", "ms", ol.alarmsLat, 0.90, valid, false)
	rep.pct("alarm_p99_ms", "ms", ol.alarmsLat, 0.99, valid, false)
	rep.pct("retrain_p50_ms", "ms", msOf(r.retrains), 0.50, true, false)
	rep.pct("retrain_p90_ms", "ms", msOf(r.retrains), 0.90, true, false)
	rep.value("uplink_bytes_per_patient_s", "bytes", float64(uplink)/float64(unp.seconds+ol.seconds), nil)
	rep.value("peak_rss_mb", "MB", peakRSSMB(), nil)
	fmt.Printf("%-36s %14.6f %-10s\n", "failed_frac", r.led.frac(), "ratio")
}

func stamp(w workload, seed int64, procs int, unp, open time.Duration, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# e2ebench workload=%s seed=%d trace=%v\n", w.name, seed, traced)
	fmt.Printf("# cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", cpuModel(), runtime.NumCPU(), procs, runtime.Version(), commit)
	fmt.Printf("# phases: set-up x%d, unpaced %v, open loop %v at %.0f patient-s/s; patients %d, recordings %d x %d s\n",
		setups, unp, open, w.rate, w.patients, w.recs, w.cycle())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// modelSignature describes every patient's final model by version and
// shape, to compare set-ups of one seed.
func modelSignature(r *runner) []string {
	out := make([]string, len(r.pats))
	for i, p := range r.pats {
		m, v := r.sys.model(p.id)
		if m == nil {
			out[i] = "none"
			continue
		}
		out[i] = fmt.Sprintf("v%d/%d/%v", v, m.NumNodes(), m.Quant() != nil)
	}
	return out
}

func equalTimes(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func head(xs []float64) []float64 {
	if len(xs) > 8 {
		return xs[:8]
	}
	return xs
}

func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
