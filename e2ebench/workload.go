package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"selflearn/internal/ml/forest"
	"selflearn/internal/rt"
	"selflearn/internal/serve"
	"selflearn/internal/signal"
	"selflearn/internal/synth"
)

const (
	sampleRate = signal.DefaultSampleRate // 256 Hz
	fs         = int(sampleRate)
	winHops    = 4 // 4 s windows at a 1 s hop
	firstOnset = 10
	// confirmLag is how long after a seizure ends the patient presses
	// the confirmation button.
	confirmLag = 5
	ringSlots  = 16 // per-patient push buffers recycled round-robin
)

// workload is one benchmark scenario. Patients replay a few distinct
// recordings, each at its own rotation offset, so input memory stays
// bounded while every patient still trains its own model (the learner
// seeds its forest from the patient ID).
type workload struct {
	name     string
	patients int
	recs     int     // distinct recordings
	seizures int     // seizures per recording cycle
	gap      float64 // seizure onset-to-onset, s
	dur      float64 // seizure duration, s
	history  time.Duration
	// rate is the open-loop offered load in patient-seconds per wall
	// second (one patient-second is one pushed batch and one window).
	rate float64
	// confirmAll makes every patient confirm each seizure during the
	// timed phases and wait for its retrain before streaming on.
	confirmAll bool
	// learners sizes the background retraining pool.
	learners int
	// shards > 0 serves through cluster.Router over loopback TCP to
	// that many in-process cluster.Serve shards.
	shards int
	// fullRateEvery > 0 has every fullRateEvery-th patient push
	// full-rate frames while the others run the device-side prefilter.
	fullRateEvery int
}

var workloads = []workload{
	{name: "ward-inproc", patients: 256, recs: 16, seizures: 16, gap: 40, dur: 20,
		history: 2 * time.Minute, rate: 8000, learners: 2},
	// One learner: retraining takes at most one of the two CPUs from
	// the serving workers and the generator.
	{name: "selflearn-confirm", patients: 128, recs: 4, seizures: 8, gap: 100, dur: 50,
		history: time.Hour, rate: 1600, confirmAll: true, learners: 1},
	// Seven of eight patients gate on the device and seizures are sparse
	// (30 s in 160 s), so most seconds never reach feature extraction.
	// With half, or a quarter, of the patients at full rate and denser
	// seizures, features were still half or more of this workload's CPU.
	{name: "edge-fleet-tcp", patients: 128, recs: 16, seizures: 6, gap: 160, dur: 30,
		history: 2 * time.Minute, rate: 5000, learners: 2, shards: 2, fullRateEvery: 8},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cycle is the recording length in seconds; streams wrap around it.
func (w workload) cycle() int { return int(float64(w.seizures) * w.gap) }

// alarmConfig re-raises the alarm every second the 3-of-5 vote holds
// (a refractory of one hop), so each detected seizure yields an alarm
// per second and a short run collects enough latency samples for a
// supported p99.
func alarmConfig() rt.Config {
	return rt.Config{VoteWindow: 5, VotesToRaise: 3, Refractory: time.Second, Hop: time.Second}
}

// prefilterConfig is the prefilter-uplink matrix arm's gate.
func prefilterConfig() serve.PrefilterConfig {
	return serve.PrefilterConfig{
		Gate:           rt.GateConfig{Factor: 2.5, HistoryWindows: 32},
		AuditEvery:     128,
		DriftThreshold: serve.DefaultDriftThreshold,
	}
}

func (w workload) serverConfig(workers int) serve.Config {
	return serve.Config{
		Workers:            workers,
		QueueDepth:         256,
		Learners:           w.learners,
		LearnerQueue:       w.patients + 16,
		SampleRate:         sampleRate,
		History:            w.history,
		AvgSeizureDuration: time.Duration(w.dur) * time.Second,
		AlarmCfg:           alarmConfig(),
		ForestCfg:          forest.DefaultConfig(),
	}
}

// recording is one rendered input: two channels of cycle() seconds.
type recording struct {
	c0, c1 []float64
}

func (r *recording) second(pos int) (c0, c1 []float64) {
	return r.c0[pos*fs : (pos+1)*fs], r.c1[pos*fs : (pos+1)*fs]
}

func buildRecordings(w workload, seed int64) ([]*recording, error) {
	out := make([]*recording, w.recs)
	for r := range out {
		cfg := synth.RecordConfig{
			PatientID:  fmt.Sprintf("rec%d", r),
			RecordID:   w.name,
			Seed:       mixSeed(seed, fmt.Sprintf("%s/rec%d", w.name, r)),
			Duration:   float64(w.cycle()),
			SampleRate: sampleRate,
			Background: synth.DefaultBackground(),
		}
		for k := 0; k < w.seizures; k++ {
			cfg.Seizures = append(cfg.Seizures, synth.SeizureEvent{
				Start:    firstOnset + float64(k)*w.gap,
				Duration: w.dur,
				Config:   synth.DefaultSeizure(),
			})
		}
		rec, err := synth.Generate(cfg)
		if err != nil {
			return nil, err
		}
		out[r] = &recording{c0: rec.Data[0], c1: rec.Data[1]}
	}
	return out, nil
}

func mixSeed(seed int64, s string) int64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return seed ^ int64(h.Sum64())
}

// isConfirmPoint reports whether pushing recording second pos is the
// moment the patient confirms: confirmLag seconds after a seizure ends.
func (w workload) isConfirmPoint(pos int) bool {
	g := int(w.gap)
	rel := pos - firstOnset - int(w.dur) - confirmLag + 1
	return rel >= 0 && rel%g == 0 && rel/g < w.seizures
}

// offset places patient i so that its warm-up (the stretch up to its
// first confirm point) holds one whole seizure: the stream starts
// between the previous seizure's confirm point and the next onset.
// The start varies across patients, so their confirm points — and the
// retrains they trigger — spread over the seizure cycle instead of
// arriving in lockstep; patients also cycle through recordings and
// seizures, so the streams are distinct.
func (w workload) offset(i int) (rec, off int) {
	rec = i % w.recs
	k := (i / w.recs) % w.seizures
	pre := int(w.gap-w.dur) - confirmLag // seconds from a confirm point to the next onset
	j := (i * 7) % pre
	off = firstOnset + k*int(w.gap) - pre + j
	L := w.cycle()
	return rec, ((off % L) + L) % L
}
