package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// Span names. Spans of one patient-second share an ID (psID); parent
// names the span kind of the same ID that caused this one.
const (
	spanNone uint8 = iota
	spanDue
	spanPush
	spanAlarm
	spanConfirm
	spanModelUpdated
	spanLayer // one single-goroutine layer replay call
)

var spanNames = [...]string{"", "gen.due", "push", "event.alarm", "serve.confirm", "event.model_updated", "layer"}

type span struct {
	name, parent uint8
	layer        uint8 // layer index for spanLayer
	id           uint64
	start, end   int64
}

// tracer records spans in a preallocated in-memory buffer; spans past
// its capacity are counted, not stored. Disabled tracers record nothing.
type tracer struct {
	on      bool
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	pushLbl string // "serve.push" or "cluster.push"
}

func newTracer(on bool, capacity int, pushLbl string) *tracer {
	t := &tracer{on: on, pushLbl: pushLbl}
	if on {
		t.spans = make([]span, capacity)
	}
	return t
}

func (t *tracer) add(name uint8, id uint64, parent uint8, start, end int64) {
	t.addLayer(name, 0, id, parent, start, end)
}

func (t *tracer) addLayer(name, layer uint8, id uint64, parent uint8, start, end int64) {
	if !t.on {
		return
	}
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{name: name, parent: parent, layer: layer, id: id, start: start, end: end}
}

func (t *tracer) recorded() []span {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

func (t *tracer) label(s span) string {
	switch s.name {
	case spanPush:
		return t.pushLbl
	case spanLayer:
		return layerNames[s.layer]
	}
	return spanNames[s.name]
}

// selfTimes sums each span kind's self time: its duration minus the
// union of its children (same ID, parent naming its kind).
func (t *tracer) selfTimes() map[string]time.Duration {
	spans := t.recorded()
	children := map[[2]uint64][]interval{}
	for _, s := range spans {
		if s.parent != spanNone {
			k := [2]uint64{s.id, uint64(s.parent)}
			children[k] = append(children[k], interval{s.start, s.end})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[[2]uint64{s.id, uint64(s.name)}]
		out[t.label(s)] += time.Duration(selfTime(interval{s.start, s.end}, kids))
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for _, s := range t.recorded() {
		parent := ""
		if s.parent != spanNone {
			parent = spanNames[s.parent]
			if s.parent == spanPush {
				parent = t.pushLbl
			}
		}
		fmt.Fprintf(bw, "{\"name\":%q,\"id\":%d,\"parent\":%q,\"start\":%d,\"end\":%d}\n",
			t.label(s), s.id, parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints the per-kind self-time table.
func (t *tracer) printSelfTimes() {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for k := range st {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# trace self time  %-40s %12.3f ms\n", k, float64(st[k])/1e6)
	}
	if d := t.dropped.Load(); d > 0 {
		fmt.Printf("# trace dropped %d spans past the buffer\n", d)
	}
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
