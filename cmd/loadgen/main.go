// Command loadgen replays adversarial scenarios against the serving
// layer and emits one eval row (JSON) per scenario: admitted windows,
// quality rejections, admission losses, and detection metrics scored
// against ground truth. By default it runs the pinned scenario matrix
// (internal/scenario.Matrix, documented in EXPERIMENTS.md) against an
// in-process server; -cluster points it at a shardd fleet instead, and
// -spec loads a custom scenario from JSON.
//
//	loadgen -list
//	loadgen -scenario artifact-dropout
//	loadgen -scenario clean-replay,patient-churn -out rows.json
//	loadgen -spec myscenario.json -cluster 127.0.0.1:7481,127.0.0.1:7482
//	loadgen -scenario diurnal-wave -speed 4
//	loadgen -scenario clean-replay -cluster 127.0.0.1:7461 -faults plan.json
//
// Cluster runs need the fleet started with a -rate matching the
// workload's sample rate (128 for the synthetic matrix, 256 for
// chbmit-replay) and, for scenarios that set quality thresholds,
// shardd -quality — the engine mirrors the prefilter client-side to
// map ground truth into admitted stream time, so the two must agree.
// Rows are exactly reproducible on a fresh fleet; scenarios after the
// first in one invocation run under prefixed patient IDs so their
// window accounting starts on cold sessions.
//
// Scenarios with a prefilter section run the stage-1 amplitude gate in
// this process — the "on device" half of the edge/cloud split — and
// need every shard speaking wire v5; rows then carry uplink_bytes,
// suppressed_windows and audit counters accounted in exact
// wire-protocol bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"selflearn/internal/cluster"
	"selflearn/internal/fault"
	"selflearn/internal/scenario"
	"selflearn/internal/serve"
	"selflearn/internal/signal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		list     = flag.Bool("list", false, "print the pinned scenario matrix and exit")
		names    = flag.String("scenario", "", `comma-separated matrix scenario names, or "all" (default: all)`)
		specFile = flag.String("spec", "", "path to a custom scenario spec (JSON, see internal/scenario.Spec)")
		fleet    = flag.String("cluster", "", "comma-separated shardd addresses; empty runs in-process")
		seed     = flag.Int64("seed", -1, "override every scenario's seed (-1 keeps the pinned seeds)")
		patients = flag.Int("patients", 0, "override the patient count (0 keeps each spec's)")
		duration = flag.Float64("duration", 0, "override stream seconds per patient (0 keeps each spec's)")
		speed    = flag.Float64("speed", 0, "real-time pacing multiple (1 = wall clock, 0 = full speed)")
		faults   = flag.String("faults", "", "fault-injection plan (JSON, see internal/fault); overrides each spec's faults section")
		out      = flag.String("out", "", "write eval rows to this file instead of stdout")
	)
	flag.Parse()

	if *list {
		for _, s := range scenario.Matrix() {
			fmt.Printf("%-22s seed=%-4d %s\n", s.Name, s.Seed, describe(s))
		}
		return
	}

	specs, err := selectSpecs(*names, *specFile)
	if err != nil {
		log.Fatal(err)
	}
	var plan *fault.Plan
	if *faults != "" {
		data, err := os.ReadFile(*faults)
		if err != nil {
			log.Fatal(err)
		}
		if plan, err = fault.LoadPlan(data); err != nil {
			log.Fatal(err)
		}
	}
	for i := range specs {
		if *seed >= 0 {
			specs[i].Seed = *seed
		}
		if *patients > 0 {
			specs[i].Patients = *patients
		}
		if *duration > 0 {
			specs[i].Duration = *duration
		}
		if plan != nil {
			specs[i].Faults = plan
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)

	addrs := splitList(*fleet)
	for i, spec := range specs {
		start := time.Now()
		res, err := runOne(spec, addrs, i, *speed)
		if err != nil {
			log.Fatalf("%s: %v", spec.Name, err)
		}
		line := fmt.Sprintf("%s: %d windows, %d rejected, %d/%d detected, %.1f FA/h, %d uplink bytes",
			res.Name, res.Windows, res.QualityRejected, res.Detected, res.Events,
			res.FalseAlarmsPerHour, res.UplinkBytes)
		if res.SuppressedWindows > 0 {
			line += fmt.Sprintf(" (%d suppressed, %d audited, %d disagreed)",
				res.SuppressedWindows, res.AuditSamples, res.AuditDisagreements)
		}
		log.Printf("%s (%.1fs)", line, time.Since(start).Seconds())
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
	}
}

// selectSpecs resolves the -scenario and -spec flags into the run list.
func selectSpecs(names, specFile string) ([]scenario.Spec, error) {
	var specs []scenario.Spec
	switch {
	case names == "all" || (names == "" && specFile == ""):
		specs = scenario.Matrix()
	case names != "":
		for _, name := range splitList(names) {
			s, ok := scenario.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q (try -list)", name)
			}
			specs = append(specs, s)
		}
	}
	if specFile != "" {
		data, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		var s scenario.Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", specFile, err)
		}
		if s.Name == "" {
			s.Name = strings.TrimSuffix(filepath.Base(specFile), filepath.Ext(specFile))
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// runOne builds and replays a single scenario against the selected
// backend, returning its eval row.
func runOne(spec scenario.Spec, addrs []string, idx int, speed float64) (*scenario.Result, error) {
	w, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	w.Speed = speed
	c := scenario.NewCollector()

	if len(addrs) == 0 {
		if w.Spec.Faults != nil {
			log.Printf("%s: faults ignored in-process (network fault injection needs -cluster)", w.Spec.Name)
		}
		srv, err := scenario.NewLocalServer(w, c)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		return w.Run(scenario.LocalBackend(srv), c)
	}

	if w.Spec.Quality != nil {
		if *w.Spec.Quality == signal.DefaultQuality() {
			log.Printf("%s: expects the fleet started with -quality", w.Spec.Name)
		} else {
			log.Printf("%s: custom quality thresholds cannot be installed remotely; the fleet's prefilter must match or rejection counts will not", w.Spec.Name)
		}
	}
	log.Printf("%s: expects the fleet started with -rate %g", w.Spec.Name, w.SampleRate)
	if w.Spec.Prefilter != nil {
		log.Printf("%s: expects the fleet started with -avg-seizure 20s — stage-2 audits score with the shard's model, and a fleet trained under different labels inflates audit disagreements", w.Spec.Name)
	}
	if idx > 0 {
		// Sessions persist on the fleet between scenarios: a reused
		// patient ID would resume a warm feature streamer and break the
		// cold-start window accounting, so later scenarios in one
		// invocation run under prefixed IDs.
		for s := range w.Streams {
			w.Streams[s].ID = fmt.Sprintf("s%d-%s", idx, w.Streams[s].ID)
		}
	}

	copts := cluster.Options{Admission: admissionPolicy(w.Spec.Admission)}
	if w.Spec.Faults != nil {
		// Every router and dial runs under the plan from here on; plan
		// time starts now, so window offsets are relative to the
		// scenario's cluster bring-up.
		inj, err := fault.New(w.Spec.Faults)
		if err != nil {
			return nil, err
		}
		inj.Arm()
		copts.Dialer = inj.Dial
		log.Printf("%s: fault plan armed: %d windows (fault seed %d)", w.Spec.Name, len(inj.Windows()), w.Spec.Faults.Seed)
	}
	r, err := cluster.Dial(addrs, copts)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := r.WaitReady(10 * time.Second); err != nil {
		return nil, err
	}
	if w.Spec.Prefilter != nil && !r.SupportsPrefilter() {
		// A pre-v5 shard would silently drop the digest/audit frames and
		// the engine's exact-drain accounting would hang; refuse up front.
		return nil, fmt.Errorf("scenario declares a prefilter but the fleet does not speak wire v5")
	}
	go func() {
		for ev := range r.Events() {
			c.Observe(ev)
		}
	}()
	return w.Run(routerBackend{r}, c)
}

func admissionPolicy(name string) serve.AdmissionPolicy {
	switch name {
	case "drop":
		return serve.DropOnFull()
	case "shed":
		return serve.ShedOldest()
	default:
		return serve.BlockWithDeadline(0)
	}
}

// routerBackend drives a shardd fleet through a cluster.Router. Its
// streams carry the prefilter verbs too, and the engine retries their
// transient failover errors.
type routerBackend struct{ r *cluster.Router }

func (b routerBackend) Open(patient string) (scenario.Handle, error) { return b.r.Open(patient) }
func (b routerBackend) Snapshot() serve.Stats                        { return b.r.Snapshot() }

// describe summarizes a matrix spec's adversarial traits for -list.
func describe(s scenario.Spec) string {
	var traits []string
	src := s.Source.Kind
	if src == "" {
		src = "synth"
	}
	traits = append(traits, src)
	if s.Seizures.Count > 0 && s.Source.Kind == "" {
		traits = append(traits, fmt.Sprintf("%d seizures", s.Seizures.Count))
	}
	if s.Artifacts.Blinks || s.Artifacts.Chewing {
		traits = append(traits, "benign artifacts")
	}
	if s.Artifacts.Bursts > 0 {
		traits = append(traits, fmt.Sprintf("%d saturating bursts", s.Artifacts.Bursts))
	}
	if s.Dropouts.Count > 0 {
		traits = append(traits, fmt.Sprintf("%d dropouts", s.Dropouts.Count))
	}
	if s.Churn.Reopens > 0 {
		traits = append(traits, fmt.Sprintf("%d reopens", s.Churn.Reopens))
	}
	if s.Wave.Period > 0 {
		traits = append(traits, fmt.Sprintf("%gs load wave", s.Wave.Period))
	}
	if s.Quality == nil {
		traits = append(traits, "no prefilter")
	}
	if s.Prefilter != nil {
		traits = append(traits, fmt.Sprintf("stage-1 gate ×%g", s.Prefilter.Factor))
	}
	if s.Faults != nil {
		traits = append(traits, fmt.Sprintf("%d fault rules", len(s.Faults.Rules)))
	}
	if s.Patients > 0 {
		traits = append(traits, fmt.Sprintf("%d patients", s.Patients))
	}
	return strings.Join(traits, ", ")
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
