package serve

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"selflearn/internal/ml/forest"
)

// wideCheckpoint is a well-formed checkpoint whose single tree declares
// 40 features and splits on feature 35 — a model for another feature
// bank. Scored against the 10-feature rows it would index past every
// row, which used to panic the shard's worker and take every patient
// on it down.
const wideCheckpoint = `{"trees":[{"num_features":40,"nodes":[` +
	`{"feature":35,"threshold":0.5,"left":1,"right":2},` +
	`{"leaf":true,"positive":true,"prob":1},{"leaf":true,"positive":true,"prob":1}]}],"oob_error":0}`

// TestWideCheckpointRefused replays the wide checkpoint through the two
// routes untrusted model bytes take into a server — InstallModel (which
// ModelPut frames go through) and a FileStore load — and checks that it
// is refused without a panic and that no patient's alarms change.
func TestWideCheckpointRefused(t *testing.T) {
	wide, err := forest.LoadFlat(strings.NewReader(wideCheckpoint))
	if err != nil {
		t.Fatalf("the checkpoint is well-formed and must load: %v", err)
	}
	if wide.NumFeatures() != 40 {
		t.Fatalf("NumFeatures %d, want 40", wide.NumFeatures())
	}
	good := trainOnRecording(t)
	others := []string{"other-1", "other-2"}
	const victim = "victim"

	// run serves the victim and two trained patients on one worker and
	// returns every patient's alarm stream times.
	run := func(store ModelStore, install func(*Server)) (map[string][]float64, Stats) {
		var mu sync.Mutex
		alarms := map[string][]float64{}
		opts := []Option{WithEventSink(func(ev Event) {
			if ev.Kind == EventAlarm {
				mu.Lock()
				alarms[ev.Patient] = append(alarms[ev.Patient], ev.StreamTime)
				mu.Unlock()
			}
		})}
		if store != nil {
			opts = append(opts, WithModelStore(store))
		}
		srv, err := New(Config{Workers: 1, SampleRate: testRate, History: time.Minute}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for _, p := range others {
			if !srv.InstallModel(p, good, 1) {
				t.Fatalf("InstallModel(%s) refused a 10-feature model", p)
			}
		}
		install(srv)
		for i, p := range append([]string{victim}, others...) {
			stream(t, open(t, srv, p), testRecording(t, int64(20+i), 120, 40, 20))
		}
		srv.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, ts := range alarms {
			slices.Sort(ts)
		}
		return alarms, srv.Snapshot()
	}

	want, _ := run(nil, func(*Server) {})
	for _, p := range others {
		if len(want[p]) == 0 {
			t.Fatalf("reference run raised no alarms for %s; the comparison would be vacuous", p)
		}
	}
	check := func(route string, got map[string][]float64) {
		t.Helper()
		for _, p := range append([]string{victim}, others...) {
			if !slices.Equal(got[p], want[p]) {
				t.Errorf("%s: %s alarms %v, want %v", route, p, got[p], want[p])
			}
		}
	}

	got, _ := run(nil, func(srv *Server) {
		if srv.InstallModel(victim, wide, 1) {
			t.Error("InstallModel accepted a 40-feature model")
		}
	})
	check("InstallModel", got)

	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveVersion(victim, wide, 3); err != nil {
		t.Fatal(err)
	}
	got, st := run(fs, func(srv *Server) {
		if srv.Model(victim) != nil {
			t.Error("the store read-through served a 40-feature model")
		}
	})
	check("FileStore", got)
	if st.StoreErrors == 0 {
		t.Error("the refused checkpoint did not count in StoreErrors")
	}
}
