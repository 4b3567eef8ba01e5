package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"facechange/internal/core"
	"facechange/internal/detect"
	"facechange/internal/fleet"
	fleetshard "facechange/internal/fleet/shard"
	"facechange/internal/load"
	"facechange/internal/migrate"
	"facechange/internal/telemetry"
)

// relayBuf sizes the node relay buffers and the aggregator hub's rings:
// the closed-loop warm-up emits tens of thousands of events between two
// flushes.
const relayBuf = 1 << 16

// fleetStats is the fleet-relay round's control plane and its
// measurements.
type fleetStats struct {
	hub    *telemetry.Hub
	plane  *fleetshard.Plane
	fnodes []*fleet.Node
	admit  *admitSink
	agg    *telemetry.Aggregator
	det    *detect.Engine
	aggTr  *tracer // the aggregator hub's sink spans (nil when untraced)
	digest string
	assign []int // app index → hosting node

	convergeNs  int64
	joinNs      []int64
	joinBytes   []uint64
	relayBytes  uint64 // node bytes out during the capacity phase
	relayEvents uint64 // events emitted during the capacity phase
	dups        uint64
	queueHigh   int
	lost        []uint64 // per node: events found missing at a gate
	panics      panicLog // the aggregator hub's sinks' recovered panics
}

// fleetSetup publishes the synthetic views onto a 2-shard plane, boots
// the nodes and lets each join (home onto its ring shard and delta-sync
// the catalog through one shared chunk store). Node telemetry relays node
// to shard to the aggregator hub, whose sinks are an Aggregator, a
// detect.Engine and the admit sink.
func fleetSetup(r *round) error {
	tr := r.mainTr
	if err := bootNodes(r, "node", nil); err != nil {
		return err
	}
	kf, err := factsOf(r.nodes[0].vm.Kernel)
	if err != nil {
		return err
	}
	if err := tr.traced(lKview, func() (err error) {
		r.specs, err = syntheticSpecs(kf, catalog(numApps), r.seed)
		return err
	}); err != nil {
		return err
	}
	fs := &fleetStats{admit: newAdmitSink(), agg: telemetry.NewAggregator(0), det: detect.New(detect.Config{})}
	r.fleet = fs
	if r.traced {
		fs.aggTr = newTracer("aggregator")
	}
	// The relay delivers in bursts (a shard's whole queue at once); the
	// rings are sized so a burst never overruns them.
	guard := func(l layer, s telemetry.Sink) telemetry.Sink {
		return sinkFor(fs.aggTr, l, guardedSink{l: l, sink: s, panics: &fs.panics})
	}
	fs.hub = telemetry.NewHub(telemetry.HubConfig{CPUs: numCPUs, RingSize: relayBuf, Sinks: []telemetry.Sink{
		guard(lAggregate, fs.agg),
		guard(lDetect, fs.det),
		guard(lAdmit, fs.admit),
	}})
	fs.hub.Start()
	infos := []fleet.ShardInfo{{ID: "s-0"}, {ID: "s-1"}}
	fs.plane, err = fleetshard.NewPlane(fleetshard.PlaneConfig{Shards: infos, Hub: fs.hub})
	if err != nil {
		return err
	}
	t0 := now()
	if err := tr.traced(lConverge, func() error {
		for _, s := range r.specs {
			if err := fs.plane.Publish(s.cfg); err != nil {
				return fmt.Errorf("publish %s: %w", s.name, err)
			}
		}
		return fs.plane.WaitConverged(30 * time.Second)
	}); err != nil {
		return err
	}
	fs.convergeNs = now() - t0
	fs.digest = fs.plane.Digest()

	store := fleet.NewChunkStore()
	for i, n := range r.nodes {
		n.agent = newTimedAgent(migrate.NewAgent(n.vm.Runtime, nil))
		n.agent.tr = tr
		h := fs.plane.NodeDialer(n.id)
		fn := fleet.NewNode(fleet.NodeConfig{
			ID:            n.id,
			Dial:          h.Dial,
			OnShardMap:    h.OnShardMap,
			Store:         store,
			Runtime:       n.vm.Runtime,
			Migrate:       n.agent,
			FlushInterval: 5 * time.Millisecond,
			TelemetryBuf:  relayBuf,
		})
		// NewNode pointed the runtime at the relay buffer; count in front
		// of it so admission can be checked per node.
		n.emit = &countingEmitter{next: fn.Telemetry(), tr: n.tr}
		n.vm.Runtime.SetEmitter(n.emit)
		fs.fnodes = append(fs.fnodes, fn)
		t0 := now()
		if err := tr.traced(lJoin, func() error {
			fn.Start()
			return fn.WaitDigest(fs.digest, 30*time.Second)
		}); err != nil {
			return fmt.Errorf("%s join: %w", n.id, err)
		}
		fs.joinNs = append(fs.joinNs, now()-t0)
		fs.joinBytes = append(fs.joinBytes, fn.Status().BytesIn)
		for _, s := range r.specs {
			if s.idx%numRuntimes != i {
				continue
			}
			idx := n.vm.Runtime.ViewIndex(s.name)
			if idx == core.FullView {
				return fmt.Errorf("%s: synced catalog lacks view %s", n.id, s.name)
			}
			n.g.addApp(s, idx)
		}
		n.vm.Runtime.Enable()
	}
	fs.assign = make([]int, len(r.specs))
	for i := range fs.assign {
		fs.assign[i] = i % numRuntimes
	}
	return nil
}

// fleetRun replays the warm-up back to back, then the capacity phase
// back to back in capacityChunks chunks, each timed from its first event
// to the aggregator admitting its last, then the remaining events open-
// loop at fleetRate, split into segments with one live migration at each
// barrier. The open-loop clock restarts after each barrier, so a
// migration does not make later events late; the migration is timed on
// its own.
func fleetRun(wl *workload, r *round, warm, timed []load.Event) {
	fs := r.fleet
	fleetSegment(r, warm, 0, false)
	r.fleetGates(false)
	r.resetCycles()
	runtime.GC()
	closed, open := timed[:wl.closed], timed[wl.closed:]
	// The relay's bytes per event are read over the capacity phase,
	// which carries telemetry alone (no migration images).
	bytes0, events0 := r.relayTotals()
	for c := 0; c < capacityChunks; c++ {
		chunk := closed[len(closed)*c/capacityChunks : len(closed)*(c+1)/capacityChunks]
		start := now()
		fleetSegment(r, chunk, 0, false)
		r.settle(chunkQuiet)
		r.eps = append(r.eps, int64(ratio(float64(len(chunk))*1e9, float64(fs.admit.lastAdmit()-start))))
	}
	r.fleetGates(false)
	bytes1, events1 := r.relayTotals()
	fs.relayBytes, fs.relayEvents = bytes1-bytes0, events1-events0
	runtime.GC()
	// Migrations come in round trips: an app moves away at one barrier
	// and home at the next, so the nodes' shares of the load (and with
	// them the simulated queueing) stay as the trace set them.
	// After a failed migration the round stops migrating, so a broken
	// migration path cannot hold a run past its time limit.
	rng := rand.New(rand.NewSource(r.seed ^ 0x6D696772617465))
	const waves = migrationsPerRound
	app, migrating := 0, true
	for w := 0; w <= waves; w++ {
		lo, hi := len(open)*w/(waves+1), len(open)*(w+1)/(waves+1)
		fleetSegment(r, open[lo:hi], fleetRate, true)
		if w == waves || !migrating {
			continue
		}
		if w%2 == 0 {
			app = rng.Intn(len(r.specs))
		}
		migrating = fleetMigrate(r, app)
	}
	r.fleetGates(true)
	r.admitNs = fs.admit.latencies()
	fs.dups = fs.scrape("facechange_fleet_telemetry_dup_events_total")
}

// relayTotals sums the nodes' bytes sent and events emitted.
func (r *round) relayTotals() (bytes, events uint64) {
	for i, fn := range r.fleet.fnodes {
		bytes += fn.Status().BytesOut
		events += r.nodes[i].emit.n.Load()
	}
	return bytes, events
}

// scrape sums one counter over the plane's live members.
func (fs *fleetStats) scrape(name string) uint64 {
	var n uint64
	for _, id := range fs.plane.Alive() {
		if m, ok := fs.plane.Member(id); ok {
			n += uint64(scrapeCounter(m.Server(), name))
		}
	}
	return n
}

// fleetSegment replays events through one open-loop generator that
// drives both nodes. With rate > 0 an event is due at the segment start
// plus its trace arrival offset scaled to rate events per host second;
// with rate 0 events run back to back.
func fleetSegment(r *round, events []load.Event, rate float64, timed bool) {
	if len(events) == 0 {
		return
	}
	fs := r.fleet
	// Trace arrivals are at the generator's simulated rate; scale them
	// to the host rate.
	var nsPerCycle float64
	if rate > 0 {
		nsPerCycle = 1e9 / load.CyclesPerSecond * r.simRate / rate
	}
	at0 := events[0].At
	start := now()
	for i, ev := range events {
		n := r.nodes[fs.assign[int(ev.App)]]
		tr := n.tr
		due := start
		if nsPerCycle > 0 {
			due += int64(float64(ev.At-at0) * nsPerCycle)
			// The wait for the event to fall due is a span of its own,
			// outside the event's work.
			ps := tr.begin(lPace)
			p0 := now()
			waitUntil(due)
			r.paceNs += now() - p0
			tr.end(ps)
		}
		es := tr.begin(lEvent)
		tr.nextEvent()
		t0 := now()
		if nsPerCycle == 0 {
			due = t0
		}
		before := n.emit.n.Load()
		_, _, err := n.g.step(ev)
		t1 := now()
		if err != nil {
			n.fail(err)
		}
		if timed {
			// The trap is timed from when the generator issued it; how
			// late that was is the generator's lateness. Admission is
			// timed from when the event was due.
			n.trapNs = append(n.trapNs, t1-t0)
			r.workNs += t1 - t0
			n.lateNs = append(n.lateNs, t0-due)
			n.events++
			if n.emit.n.Load() > before {
				fs.admit.stamp(n.id, n.emit.last, due)
			}
		}
		if i%512 == 0 {
			fs.sampleQueues()
		}
		tr.end(es)
	}
	r.loopNs += now() - start
}

// waitUntil blocks until the host clock reaches t. It yields the
// processor while it waits instead of sleeping: a timer sleep overshoots
// by a millisecond or more on small virtual machines. Yielding, unlike a
// bare spin, lets the control plane's goroutines and timers run on this
// processor too, so the generator does not hold a CPU of its own.
func waitUntil(t int64) {
	for now() < t {
		runtime.Gosched()
	}
}

// sampleQueues records the deepest shard relay queue seen.
func (fs *fleetStats) sampleQueues() {
	for _, id := range fs.plane.Alive() {
		if m, ok := fs.plane.Member(id); ok && m.QueueLen() > fs.queueHigh {
			fs.queueHigh = m.QueueLen()
		}
	}
}

// fleetMigrate live-migrates one app to the other node through the plane,
// timed from the request to the commit landing at the source. It reports
// whether the migration succeeded.
func fleetMigrate(r *round, app int) bool {
	fs := r.fleet
	src := fs.assign[app]
	dst := (src + 1) % len(r.nodes)
	sn, dn := r.nodes[src], r.nodes[dst]
	name := r.specs[app].name
	r.attempted++
	ms := r.mainTr.begin(lMigrate)
	t0 := now()
	res, err := fs.plane.Migrate(name, sn.id, dn.id, 5*time.Second)
	if err == nil {
		err = sn.agent.awaitCommit(5 * time.Second)
	}
	ns := now() - t0
	r.mainTr.end(ms)
	if err != nil {
		r.fail(fmt.Errorf("migrate %s %s>%s: %w", name, sn.id, dn.id, err))
		return false
	}
	idx := dn.vm.Runtime.ViewIndex(name)
	if idx == core.FullView {
		r.fail(fmt.Errorf("migrate %s: view not bound on %s after import", name, dn.id))
		return false
	}
	st := sn.g.apps[uint8(app)]
	delete(sn.g.apps, uint8(app))
	st.viewIdx = idx
	dn.g.apps[uint8(app)] = st
	fs.assign[app] = dst
	r.migrations = append(r.migrations, migration{ns: ns, imageBytes: res.ImageBytes, applied: res.DeltasApplied, skipped: res.DeltasSkipped})
	return true
}

// capacityChunks splits the capacity phase: each chunk is one
// throughput sample, so a chunk disturbed by a collection or a
// descheduling moves only the tail of the samples, not their median.
const capacityChunks = 6

// chunkQuiet is how long a capacity chunk waits for the aggregator to
// admit anything more before it stops the chunk's clock at the last
// admission. Events still missing then were lost on the way (the gates
// count them).
const chunkQuiet = 50 * time.Millisecond

// settle waits until the aggregator has admitted every node's emitted
// events, less those earlier gates found lost, or has admitted nothing
// for quiet. It reads the admit sink's own counts, never hub occupancy.
func (r *round) settle(quiet time.Duration) {
	fs := r.fleet
	want := map[string]uint64{}
	for i, n := range r.nodes {
		want[n.id] = n.emit.n.Load()
		if fs.lost != nil {
			want[n.id] -= fs.lost[i]
		}
	}
	fs.admit.settle(want, quiet)
}

// admitQuiet is how long a gate waits for the aggregator to admit
// anything more before it counts a node's missing events as lost; the
// relay path's admit p99 is about ten milliseconds.
const admitQuiet = 300 * time.Millisecond

// fleetGates checks exactness after the warm-up and after the timed
// phase: every node's admitted count reaches its emitted count, read from
// the admit sink's own count (never hub occupancy); after the timed
// phase also no relay-buffer or hub drops, no panic in the aggregator
// hub's sinks, and every node on the plane's catalog. Events found
// missing are counted once: later gates expect them to stay missing.
func (r *round) fleetGates(final bool) {
	fs := r.fleet
	if fs.lost == nil {
		fs.lost = make([]uint64, len(r.nodes))
	}
	r.settle(admitQuiet)
	for i, n := range r.nodes {
		r.attempted++
		want := n.emit.n.Load() - fs.lost[i]
		if err := fs.admit.check(n.id, want); err != nil {
			if got := fs.admit.admitted(n.id); got < want {
				fs.lost[i] += want - got
			}
			r.fail(fmt.Errorf("%w (hub drops %d, relay drops %d, plane dups %d, gaps %d)", err,
				fs.hub.Drops(), fs.fnodes[i].Status().Drops,
				fs.scrape("facechange_fleet_telemetry_dup_events_total"), fs.scrape("facechange_fleet_telemetry_gap_events_total")))
		}
		if !final {
			continue
		}
		r.attempted += 2
		if d := fs.fnodes[i].Status().Drops; d > 0 {
			r.fail(fmt.Errorf("%s: relay buffer dropped %d events", n.id, d))
		}
		if got := fs.fnodes[i].Digest(); got != fs.digest {
			r.fail(fmt.Errorf("%s: catalog digest %s, plane %s", n.id, got, fs.digest))
		}
	}
	if final {
		r.attempted += 2
		if d := fs.hub.Drops(); d > 0 {
			r.fail(fmt.Errorf("aggregator hub dropped %d events", d))
		}
		for _, err := range fs.panics.take() {
			r.fail(err)
		}
	}
}

// close stops the nodes, the plane and the aggregator hub, in that order
// (nodes flush their relay buffers on close).
func (fs *fleetStats) close() {
	for _, fn := range fs.fnodes {
		fn.Close()
	}
	if fs.plane != nil {
		fs.plane.Close()
	}
	if fs.hub != nil {
		fs.hub.Close()
	}
}

// drop releases the plane and nodes once closed.
func (fs *fleetStats) drop() {
	fs.hub, fs.plane, fs.fnodes, fs.agg, fs.det, fs.admit = nil, nil, nil, nil, nil, nil
}

// scrapeCounter reads one unlabeled sample from a metric source's
// Prometheus text output.
func scrapeCounter(src interface{ WriteMetrics(*telemetry.Writer) }, name string) float64 {
	var buf bytes.Buffer
	src.WriteMetrics(telemetry.NewMetricsWriter(&buf))
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}
