package main

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"selflearn/internal/cluster"
	"selflearn/internal/ml/forest"
	"selflearn/internal/scenario"
	"selflearn/internal/serve"
)

// system is the serving stack under test, reached only through the
// public APIs of internal/serve and internal/cluster.
type system interface {
	// open returns the patient's stream: serve.Stream in process,
	// cluster.Stream over TCP.
	open(id string) (scenario.PrefilterHandle, error)
	// stats sums the serving counters of every server in the process.
	stats() serve.Stats
	// clientStats returns the router's fleet-summed view (cluster) or
	// the server's own (in process); failures are read from it.
	clientStats() serve.Stats
	model(id string) (*forest.FlatForest, uint64)
	depth() int
	uplinkBytes() uint64
	close()
}

// admission blocks on full queues: the generator never loses a batch,
// so window accounting is exact and alarms are deterministic.
func admission() serve.AdmissionPolicy { return serve.BlockWithDeadline(10 * time.Second) }

type localSystem struct{ srv *serve.Server }

func newLocal(w workload, workers int, sink func(serve.Event)) (*localSystem, error) {
	srv, err := serve.New(w.serverConfig(workers), serve.WithAdmission(admission()), serve.WithEventSink(sink))
	if err != nil {
		return nil, err
	}
	return &localSystem{srv: srv}, nil
}

func (l *localSystem) open(id string) (scenario.PrefilterHandle, error) {
	return l.srv.Open(id)
}
func (l *localSystem) stats() serve.Stats       { return l.srv.Snapshot() }
func (l *localSystem) clientStats() serve.Stats { return l.srv.Snapshot() }
func (l *localSystem) model(id string) (*forest.FlatForest, uint64) {
	return l.srv.ModelVersioned(id)
}
func (l *localSystem) depth() int          { return l.srv.Snapshot().QueueDepth }
func (l *localSystem) uplinkBytes() uint64 { return 0 }
func (l *localSystem) close()              { l.srv.Close() }

// connCounter counts the router's socket writes and bytes, plugged in
// through cluster.Options.Dialer.
type connCounter struct {
	writes, bytes atomic.Uint64
}

type countingConn struct {
	net.Conn
	c *connCounter
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(uint64(n))
	return n, err
}

func (c *connCounter) dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: c}, nil
}

type clusterSystem struct {
	shards  []*serve.Server
	servers []*cluster.ShardServer
	router  *cluster.Router
	conns   *connCounter
	done    chan struct{}
}

// newCluster starts w.shards in-process shards on loopback listeners
// (one worker each, so the fleet uses as many CPUs as the in-process
// workloads) and a router with one connection per shard. Router events
// are drained by one goroutine into deliver.
func newCluster(w workload, deliver func(serve.Event, int64)) (*clusterSystem, error) {
	cs := &clusterSystem{conns: &connCounter{}, done: make(chan struct{})}
	var addrs []string
	for i := 0; i < w.shards; i++ {
		srv, err := serve.New(w.serverConfig(1), serve.WithAdmission(admission()), serve.WithEventBuffer(1<<16))
		if err != nil {
			cs.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			cs.close()
			return nil, err
		}
		cs.shards = append(cs.shards, srv)
		ss := cluster.Serve(srv, ln, cluster.Options{})
		cs.servers = append(cs.servers, ss)
		addrs = append(addrs, ss.Addr().String())
	}
	r, err := cluster.Dial(addrs, cluster.Options{
		Admission:   admission(),
		EventBuffer: 1 << 16,
		Dialer:      cs.conns.dial,
	})
	if err != nil {
		cs.close()
		return nil, err
	}
	cs.router = r
	if err := r.WaitReady(10 * time.Second); err != nil {
		cs.close()
		return nil, err
	}
	if !r.SupportsPrefilter() {
		cs.close()
		return nil, errors.New("fleet does not support the prefilter protocol")
	}
	go func() {
		defer close(cs.done)
		for ev := range r.Events() {
			deliver(ev, time.Now().UnixNano())
		}
	}()
	return cs, nil
}

func (c *clusterSystem) open(id string) (scenario.PrefilterHandle, error) {
	return c.router.Open(id)
}

func (c *clusterSystem) stats() serve.Stats {
	var agg serve.Stats
	for _, s := range c.shards {
		st := s.Snapshot()
		agg.Batches += st.Batches
		agg.BatchesDropped += st.BatchesDropped
		agg.BatchesShed += st.BatchesShed
		agg.Windows += st.Windows
		agg.Alarms += st.Alarms
		agg.Confirms += st.Confirms
		agg.ConfirmsRejected += st.ConfirmsRejected
		agg.ConfirmsDropped += st.ConfirmsDropped
		agg.Retrains += st.Retrains
		agg.RetrainErrors += st.RetrainErrors
		agg.StreamErrors += st.StreamErrors
		agg.StoreErrors += st.StoreErrors
		agg.WindowsSuppressed += st.WindowsSuppressed
		agg.AuditSamples += st.AuditSamples
		agg.AuditDisagreements += st.AuditDisagreements
		agg.PrefilterDrift += st.PrefilterDrift
		agg.EventsDropped += st.EventsDropped
		agg.QueueDepth += st.QueueDepth
	}
	return agg
}

func (c *clusterSystem) clientStats() serve.Stats { return c.router.Snapshot() }

// model reads the patient's detector back from whichever shard holds
// the newest version (its rendezvous home).
func (c *clusterSystem) model(id string) (*forest.FlatForest, uint64) {
	var best *forest.FlatForest
	var bestV uint64
	for _, s := range c.shards {
		if f, v := s.ModelVersioned(id); f != nil && v >= bestV {
			best, bestV = f, v
		}
	}
	return best, bestV
}

func (c *clusterSystem) depth() int {
	d := c.router.Depth()
	for _, s := range c.shards {
		d += s.Snapshot().QueueDepth
	}
	return d
}

func (c *clusterSystem) uplinkBytes() uint64 { return c.router.UplinkBytes() }

func (c *clusterSystem) close() {
	if c.router != nil {
		c.router.Close()
		<-c.done
	}
	for _, ss := range c.servers {
		ss.Close()
	}
	for _, s := range c.shards {
		s.Close()
	}
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// eventLog collects the events the generator receives. Alarms land in
// a preallocated slice under a mutex (the in-process sink runs on the
// serving workers and must stay cheap); model updates and retrain
// errors land in the patient's atomics, where its producer polls them.
type eventLog struct {
	idx      map[string]int
	pats     []*patient
	mu       sync.Mutex
	alarms   []alarmRec
	shed     atomic.Uint64
	retrainE atomic.Uint64
	unknown  atomic.Uint64
}

type alarmRec struct {
	p          int32
	streamTime float64
	evTime     int64 // Event.Time (server clock)
	recv       int64 // receipt by the generator
}

func (e *eventLog) deliver(ev serve.Event, recv int64) {
	i, ok := e.idx[ev.Patient]
	if !ok {
		if ev.Kind == serve.EventAlarm || ev.Kind == serve.EventModelUpdated {
			e.unknown.Add(1)
		}
		return
	}
	p := e.pats[i]
	switch ev.Kind {
	case serve.EventAlarm:
		e.mu.Lock()
		e.alarms = append(e.alarms, alarmRec{p: int32(i), streamTime: ev.StreamTime, evTime: ev.Time.UnixNano(), recv: recv})
		e.mu.Unlock()
	case serve.EventModelUpdated:
		p.updRecv.Store(recv)
		p.updVersion.Store(ev.Version)
	case serve.EventRetrain:
		if ev.Err != nil {
			e.retrainE.Add(1)
			p.retrainErr.Store(true)
		}
	case serve.EventShed:
		e.shed.Add(1)
	}
}

func (e *eventLog) sink(ev serve.Event) { e.deliver(ev, time.Now().UnixNano()) }

func (e *eventLog) alarmCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.alarms)
}

func (e *eventLog) takeAlarms() []alarmRec {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := append([]alarmRec(nil), e.alarms...)
	return out
}

// reserve grows the alarm log to capacity, keeping what it holds.
func (e *eventLog) reserve(capacity int) {
	e.mu.Lock()
	e.alarms = append(make([]alarmRec, 0, capacity), e.alarms...)
	e.mu.Unlock()
}
