package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"facechange/internal/telemetry"
)

// epoch anchors every host timestamp the benchmark takes; now reads the
// monotonic clock as nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// layer names one traced boundary: a public entry point of a repository
// layer, wrapped from the benchmark's own code, or one of the driver's
// own spans.
type layer uint8

const (
	lEvent      layer = iota // driver: one trace event, end to end
	lSwitch                  // core.Runtime.OnAddrTrap at context_switch
	lResume                  // core.Runtime.OnAddrTrap at resume_userspace
	lRecovery                // core.Runtime.OnInvalidOpcode
	lLoadView                // core.Runtime.LoadView
	lUnloadView              // core.Runtime.UnloadView
	lAssignView              // core.Runtime.AssignView
	lEmit                    // telemetry.Emitter.Emit (hub ring or relay buffer)
	lDrain                   // telemetry.Hub.Drain
	lAggregate               // telemetry.Aggregator as a hub sink
	lDetect                  // detect.Engine as a hub sink
	lEvolve                  // evolve.Evolver as a hub sink
	lPublish                 // evolve.PublishFunc (the driver's hot-plug)
	lAdmit                   // the benchmark's admit sink
	lMigrate                 // one whole migration, request to source commit
	lFreeze                  // migrate.Agent.Freeze
	lExport                  // migrate.Agent.Export
	lImport                  // migrate.Agent.Import
	lCommit                  // migrate.Agent.Commit
	lKview                   // kview view construction
	lProfile                 // facechange.Pool.ProfileAll
	lBoot                    // facechange.NewVM
	lJoin                    // fleet.Node start to catalog digest
	lConverge                // fleet/shard.Plane publish to convergence
	lPace                    // driver: the open-loop generator waiting for an event to fall due
	numLayers
)

var layerNames = [numLayers]string{
	lEvent:      "driver.event",
	lSwitch:     "core.switch",
	lResume:     "core.resume",
	lRecovery:   "core.recovery",
	lLoadView:   "core.loadview",
	lUnloadView: "core.unloadview",
	lAssignView: "core.assignview",
	lEmit:       "telemetry.emit",
	lDrain:      "telemetry.drain",
	lAggregate:  "telemetry.aggregate",
	lDetect:     "detect",
	lEvolve:     "evolve",
	lPublish:    "evolve.publish",
	lAdmit:      "fleet.admit",
	lMigrate:    "migrate",
	lFreeze:     "migrate.freeze",
	lExport:     "migrate.export",
	lImport:     "migrate.import",
	lCommit:     "migrate.commit",
	lKview:      "kview.build",
	lProfile:    "profiler",
	lBoot:       "facechange.boot",
	lJoin:       "fleet.join",
	lConverge:   "shard.converge",
	lPace:       "load.pace",
}

func (l layer) String() string { return layerNames[l] }

// span is one traced call: its layer, host start and end, the index of
// the span that caused it (-1 for a root) and the trace event it served.
type span struct {
	Layer  layer
	Parent int32
	Event  uint64
	Start  int64
	End    int64
}

// layerAgg folds a layer's spans: calls, busy (inclusive) and self time,
// items handled (events for the sink layers), and every duration for
// percentiles.
type layerAgg struct {
	calls, items uint64
	busy, self   int64
	durs         []int64
}

// keepSpans bounds the raw spans a tracer retains for the span file; all
// spans are folded into the per-layer aggregates regardless.
const keepSpans = 4096

// flushAt is the block size at which completed span trees are folded.
const flushAt = 1 << 14

// tracer records spans for one goroutine (or one serialized consumer,
// such as a hub's sinks). It is not safe for concurrent use. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	track string
	event uint64
	block []span
	stack []int32
	kept  []span
	agg   [numLayers]layerAgg
	// eventNs is the summed duration of root driver.event spans: the
	// replay wall time the tracer's event trees cover. foldNs is the time
	// folding blocks between two events took: the tracer's own cost.
	eventNs, foldNs int64
}

func newTracer(track string) *tracer {
	return &tracer{track: track, block: make([]span, 0, flushAt)}
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(l layer) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.block))
	t.block = append(t.block, span{Layer: l, Parent: parent, Event: t.event, Start: now()})
	t.stack = append(t.stack, i)
	return i
}

// end closes span i (the innermost open span). Once no span is open and
// the block is full, the completed trees are folded.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.block[i].End = now()
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) == 0 && len(t.block) >= flushAt {
		f0 := now()
		t.fold()
		t.foldNs += now() - f0
	}
}

// nextEvent starts the next trace event's spans.
func (t *tracer) nextEvent() {
	if t != nil {
		t.event++
	}
}

// items credits n handled items to layer l (events for sink layers).
func (t *tracer) items(l layer, n int) {
	if t != nil {
		t.agg[l].items += uint64(n)
	}
}

// open reports whether any span is open (calls made outside a traced
// scope are not recorded).
func (t *tracer) open() bool { return t != nil && len(t.stack) > 0 }

// fold moves the completed block into the aggregates: a span's self time
// is its duration minus the part its children cover.
func (t *tracer) fold() {
	if t == nil || len(t.stack) > 0 {
		return
	}
	child := make([]int64, len(t.block))
	for _, s := range t.block {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.block {
		d := s.End - s.Start
		a := &t.agg[s.Layer]
		a.calls++
		a.busy += d
		a.self += d - child[i]
		a.durs = append(a.durs, d)
		if s.Parent < 0 && s.Layer == lEvent {
			t.eventNs += d
		}
	}
	if room := keepSpans - len(t.kept); room > 0 {
		if room > len(t.block) {
			room = len(t.block)
		}
		t.kept = append(t.kept, t.block[:room]...)
	}
	t.block = t.block[:0]
}

// merge folds another tracer's aggregates into t.
func (t *tracer) merge(o *tracer) {
	o.fold()
	for l := range t.agg {
		a, b := &t.agg[l], &o.agg[l]
		a.calls += b.calls
		a.items += b.items
		a.busy += b.busy
		a.self += b.self
		a.durs = append(a.durs, b.durs...)
	}
}

// spanRecord is the span file's line format.
type spanRecord struct {
	Track  string `json:"track"`
	ID     int    `json:"id"`
	Parent int32  `json:"parent"`
	Layer  string `json:"layer"`
	Event  uint64 `json:"event"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes the retained spans of every tracer as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for i, s := range t.kept {
			rec := spanRecord{Track: t.track, ID: i, Parent: s.Parent, Layer: s.Layer.String(), Event: s.Event, Start: s.Start, End: s.End}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced runs fn inside a span of layer l.
func (t *tracer) traced(l layer, fn func() error) error {
	s := t.begin(l)
	err := fn()
	t.end(s)
	return err
}

// tracedSink wraps a hub sink with one span per delivered batch.
type tracedSink struct {
	l    layer
	sink telemetry.Sink
	tr   *tracer
}

func (s tracedSink) HandleEvent(ev telemetry.Event) { s.HandleBatch([]telemetry.Event{ev}) }

func (s tracedSink) HandleBatch(evs []telemetry.Event) {
	sp := s.tr.begin(s.l)
	deliver(s.sink, evs)
	s.tr.end(sp)
	s.tr.items(s.l, len(evs))
}

// deliver hands a batch to a sink, whole if it takes batches.
func deliver(s telemetry.Sink, evs []telemetry.Event) {
	if bs, ok := s.(telemetry.BatchSink); ok {
		bs.HandleBatch(evs)
		return
	}
	for _, ev := range evs {
		s.HandleEvent(ev)
	}
}

// guardedSink wraps a sink on a hub that drains on its own goroutine and
// records a panic raised while the sink handles a batch, so that a
// corrupt event costs a failed operation instead of ending the run: the
// panic happens on a goroutine the benchmark does not own, where nothing
// else could catch it.
type guardedSink struct {
	l      layer
	sink   telemetry.Sink
	panics *panicLog
}

func (g guardedSink) HandleEvent(ev telemetry.Event) { g.HandleBatch([]telemetry.Event{ev}) }

func (g guardedSink) HandleBatch(evs []telemetry.Event) {
	defer func() {
		if p := recover(); p != nil {
			g.panics.add(fmt.Errorf("%s sink panicked on a batch of %d events: %v", g.l, len(evs), p))
		}
	}()
	deliver(g.sink, evs)
}

// panicLog collects the panics guarded sinks recovered.
type panicLog struct {
	mu   sync.Mutex
	errs []error
}

func (p *panicLog) add(err error) {
	p.mu.Lock()
	p.errs = append(p.errs, err)
	p.mu.Unlock()
}

// take returns the recorded panics and clears the log.
func (p *panicLog) take() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	errs := p.errs
	p.errs = nil
	return errs
}

// sinkFor returns the sink itself untraced, or its traced wrapper.
func sinkFor(tr *tracer, l layer, s telemetry.Sink) telemetry.Sink {
	if tr == nil {
		return s
	}
	return tracedSink{l: l, sink: s, tr: tr}
}

// countingEmitter is a runtime's telemetry hook: it counts every event
// the runtime emits (the per-node emitted side of the admit check),
// remembers the last one's identity for the admit stamps and, while a
// traced span is open, wraps the emit in a span.
type countingEmitter struct {
	next telemetry.Emitter
	n    atomic.Uint64
	tr   *tracer
	last eventKey
}

// eventKey identifies an event within its node's stream: the machine's
// cycle counter advances between any two traps, so no two events of one
// kind share a cycle.
type eventKey struct {
	cycle uint64
	kind  telemetry.Kind
}

func (c *countingEmitter) Emit(ev telemetry.Event) {
	c.n.Add(1)
	c.last = eventKey{ev.Cycle, ev.Kind}
	if !c.tr.open() {
		c.next.Emit(ev)
		return
	}
	s := c.tr.begin(lEmit)
	c.next.Emit(ev)
	c.tr.end(s)
}

// admitSink is the last sink on an aggregator hub. It counts admitted
// events per node and turns the driver's stamps (a trace event's last
// telemetry event, and when the trace event was due) into due-to-admitted
// latencies. Stamps match by event identity in per-node order, so an
// event lost on the way costs only its own sample, never shifts later
// ones.
type admitSink struct {
	mu     sync.Mutex
	nodes  map[string]*admitNode
	lat    []int64
	last   int64 // when the latest batch was admitted
	notify chan struct{}
}

type admitNode struct {
	admitted uint64
	stamps   []admitStamp
	head     int
}

type admitStamp struct {
	key eventKey
	due int64
}

func newAdmitSink() *admitSink {
	return &admitSink{nodes: make(map[string]*admitNode), notify: make(chan struct{}, 1)}
}

func (a *admitSink) node(id string) *admitNode {
	n := a.nodes[id]
	if n == nil {
		n = &admitNode{}
		a.nodes[id] = n
	}
	return n
}

// stamp records that node id's trace event due at due ended with the
// telemetry event key.
func (a *admitSink) stamp(id string, key eventKey, due int64) {
	a.mu.Lock()
	n := a.node(id)
	n.stamps = append(n.stamps, admitStamp{key: key, due: due})
	a.mu.Unlock()
}

func (a *admitSink) HandleEvent(ev telemetry.Event) { a.HandleBatch([]telemetry.Event{ev}) }

func (a *admitSink) HandleBatch(evs []telemetry.Event) {
	a.admit(evs)
	select {
	case a.notify <- struct{}{}:
	default:
	}
}

func (a *admitSink) admit(evs []telemetry.Event) {
	t := now()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.last = t
	for _, ev := range evs {
		n := a.node(ev.Node)
		n.admitted++
		// A stamp whose cycle the stream has passed was lost upstream.
		for n.head < len(n.stamps) && n.stamps[n.head].key.cycle < ev.Cycle {
			n.head++
		}
		if n.head < len(n.stamps) && n.stamps[n.head].key == (eventKey{ev.Cycle, ev.Kind}) {
			a.lat = append(a.lat, t-n.stamps[n.head].due)
			n.head++
		}
		if n.head > 1024 && n.head*2 > len(n.stamps) {
			n.stamps = append(n.stamps[:0], n.stamps[n.head:]...)
			n.head = 0
		}
	}
}

// admitted returns node id's admitted count.
func (a *admitSink) admitted(id string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.node(id).admitted
}

// check compares node id's admitted count with the count it emitted.
func (a *admitSink) check(id string, want uint64) error {
	switch got := a.admitted(id); {
	case got > want:
		return fmt.Errorf("node %q: admitted %d events, emitted only %d", id, got, want)
	case got < want:
		return fmt.Errorf("node %q: admitted %d of %d emitted events", id, got, want)
	}
	return nil
}

// settle blocks until every node in want has had at least its wanted
// count admitted, or the sink has admitted nothing for quiet (counted
// from the call at the earliest).
func (a *admitSink) settle(want map[string]uint64, quiet time.Duration) {
	start := now()
	for {
		a.mu.Lock()
		done := true
		for id, w := range want {
			if a.node(id).admitted < w {
				done = false
			}
		}
		idle := time.Duration(now() - max(a.last, start))
		a.mu.Unlock()
		if done || idle >= quiet {
			return
		}
		select {
		case <-a.notify:
		case <-time.After(quiet - idle):
		}
	}
}

// lastAdmit returns when the sink admitted its latest batch.
func (a *admitSink) lastAdmit() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last
}

// latencies takes the collected due-to-admitted latencies.
func (a *admitSink) latencies() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.lat
	a.lat = nil
	return out
}
