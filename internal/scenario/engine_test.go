package scenario

import (
	"errors"
	"sync"
	"testing"

	"selflearn/internal/cluster"
	"selflearn/internal/serve"
)

// scriptedHandle answers each call with the next scripted error.
type scriptedHandle struct {
	errs  []error
	calls int
}

func (h *scriptedHandle) Push(c0, c1 []float64) error {
	err := h.errs[h.calls]
	h.calls++
	return err
}
func (h *scriptedHandle) Confirm() error { return h.Push(nil, nil) }
func (h *scriptedHandle) Close()         {}

func TestRetry(t *testing.T) {
	h := &scriptedHandle{errs: []error{serve.ErrBackpressure, cluster.ErrShardDown, nil}}
	if err := retry(func() error { return h.Push(nil, nil) }); err != nil {
		t.Fatalf("retry = %v after backpressure then outage, want nil", err)
	}
	if h.calls != 3 {
		t.Fatalf("retry made %d calls, want 3", h.calls)
	}

	boom := errors.New("boom")
	h = &scriptedHandle{errs: []error{boom, nil}}
	if err := retry(h.Confirm); err != boom {
		t.Fatalf("retry = %v, want the non-retryable error", err)
	}
	if h.calls != 1 {
		t.Fatalf("retry made %d calls on a non-retryable error, want 1", h.calls)
	}
}

func TestStatsDeltaClamps(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cur, base  serve.Stats
		wantWin    uint64
		wantRetr   uint64
		wantSess   int
		wantEvents uint64
	}{
		{"grows", serve.Stats{Windows: 500, Retrains: 3, Sessions: 4}, serve.Stats{Windows: 200, Retrains: 1, Sessions: 9}, 300, 2, 4, 0},
		{"shard lost since baseline", serve.Stats{Windows: 100, Retrains: 1, Sessions: 2}, serve.Stats{Windows: 400, Retrains: 5, EventsDropped: 7}, 0, 0, 2, 0},
		{"equal", serve.Stats{Windows: 7}, serve.Stats{Windows: 7}, 0, 0, 0, 0},
	} {
		got := statsDelta(tc.cur, tc.base)
		if got.Windows != tc.wantWin || got.Retrains != tc.wantRetr || got.Sessions != tc.wantSess || got.EventsDropped != tc.wantEvents {
			t.Errorf("%s: windows %d retrains %d sessions %d events dropped %d, want %d / %d / %d / %d",
				tc.name, got.Windows, got.Retrains, got.Sessions, got.EventsDropped,
				tc.wantWin, tc.wantRetr, tc.wantSess, tc.wantEvents)
		}
	}
}

// lostShardBackend spreads patients over two in-process servers, one
// each in order of first Open, and reports only the first server's
// counters — what cluster.Router.Snapshot sums once the second shard
// is unreachable. Run takes its baseline before any push, while both
// servers are still empty, so the second server's retrains vanish
// from every snapshot the drain sees.
type lostShardBackend struct {
	a, b  *serve.Server
	mu    sync.Mutex
	route map[string]*serve.Server
}

func (l *lostShardBackend) Open(p string) (Handle, error) {
	l.mu.Lock()
	srv, ok := l.route[p]
	if !ok {
		srv = l.a
		if len(l.route)%2 == 1 {
			srv = l.b
		}
		l.route[p] = srv
	}
	l.mu.Unlock()
	return srv.Open(p)
}

func (l *lostShardBackend) Snapshot() serve.Stats { return l.a.Snapshot() }

func TestDrainSurvivesLostRetrainCounters(t *testing.T) {
	w, err := Build(Spec{
		Name:      "lost-shard",
		Seed:      3,
		Duration:  120,
		Seizures:  Seizures{Count: 1, First: 30, Duration: 20},
		Confirm:   true,
		Admission: "drop",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector()
	a, err := NewLocalServer(w, c)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewLocalServer(w, c)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	res, err := w.Run(&lostShardBackend{a: a, b: b, route: map[string]*serve.Server{}}, c)
	if err != nil {
		t.Fatal(err)
	}
	if lost := b.Snapshot().Retrains; lost == 0 {
		t.Fatal("no retrain ran on the lost server; the test is vacuous")
	}
	if res.Retrains != uint64(res.Patients) {
		t.Fatalf("retrains = %d, want %d: every patient retrained", res.Retrains, res.Patients)
	}
}
