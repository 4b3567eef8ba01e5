package main

import (
	"fmt"
	"math/rand"
	"sync"

	"facechange/internal/detect"
	"facechange/internal/evolve"
	"facechange/internal/kview"
	"facechange/internal/load"
	"facechange/internal/migrate"
	"facechange/internal/telemetry"
)

// drainEvery is the local workloads' drain cadence: the replay goroutine
// drains its hub after every drainEvery trace events.
const drainEvery = 64

// localSetup boots the local workloads' runtimes: views built (synthetic)
// or profiled through the pool, loaded and assigned, each runtime feeding
// a hub whose sinks are an Aggregator, a detect.Engine, on session-churn
// a detect-gated evolver, and the admit sink.
func localSetup(wl *workload, r *round) error {
	tr := r.mainTr
	list := catalog(numApps)
	var modules []string
	if wl.churn {
		modules = modulesFor(list)
	}
	if err := bootNodes(r, "rt", modules); err != nil {
		return err
	}
	kf, err := factsOf(r.nodes[0].vm.Kernel)
	if err != nil {
		return err
	}
	var specs []*appSpec
	if wl.churn {
		err = tr.traced(lProfile, func() (err error) {
			specs, err = profiledSpecs(kf, list, r.seed, profileSyscalls)
			return err
		})
	} else {
		err = tr.traced(lKview, func() (err error) {
			specs, err = syntheticSpecs(kf, list, r.seed)
			return err
		})
	}
	if err != nil {
		return err
	}
	r.specs = specs
	for i, n := range r.nodes {
		n.kf = kf
		if wl.churn {
			n.session = sessionEvents
		}
		n.admit = newAdmitSink()
		n.agg, n.det = telemetry.NewAggregator(0), detect.New(detect.Config{})
		sinks := []telemetry.Sink{
			sinkFor(n.tr, lAggregate, n.agg),
			sinkFor(n.tr, lDetect, n.det),
		}
		if wl.churn {
			seedViews := map[string]*kview.View{}
			for _, s := range specs {
				if s.idx%numRuntimes == i {
					seedViews[s.name] = s.cfg
				}
			}
			n.evo, err = evolve.New(evolve.Config{Detector: n.det, Views: seedViews, TextSize: kf.textSize, Publish: n.publish})
			if err != nil {
				return err
			}
			sinks = append(sinks, sinkFor(n.tr, lEvolve, n.evo))
		}
		n.hub = telemetry.NewHub(telemetry.HubConfig{CPUs: numCPUs, Sinks: append(sinks, sinkFor(n.tr, lAdmit, n.admit))})
		n.emit = &countingEmitter{next: n.hub, tr: n.tr}
		n.vm.Runtime.SetEmitter(n.emit)
		n.agent = newTimedAgent(migrate.NewAgent(n.vm.Runtime, n.evo))
		n.agent.tr = tr
		// Views load on the replay goroutine's track, so the spans land
		// with the rest of that runtime's work.
		for _, s := range specs {
			if s.idx%numRuntimes != i {
				continue
			}
			var idx int
			if err := n.tr.traced(lLoadView, func() (err error) {
				idx, err = n.vm.Runtime.LoadView(s.cfg)
				return err
			}); err != nil {
				return fmt.Errorf("%s: view %s: %w", n.id, s.name, err)
			}
			n.g.addApp(s, idx)
		}
		n.vm.Runtime.Enable()
	}
	return nil
}

// bootNodes boots the workload's runtimes (facechange.NewVM), each with
// its replay tracer on traced rounds.
func bootNodes(r *round, prefix string, modules []string) error {
	for i := 0; i < numRuntimes; i++ {
		var n *node
		if err := r.mainTr.traced(lBoot, func() (err error) {
			n, err = bootNode(fmt.Sprintf("%s-%d", prefix, i), numCPUs, modules)
			return err
		}); err != nil {
			return err
		}
		if r.traced {
			n.tr = newTracer(n.id)
			n.g.tr = n.tr
		}
		r.nodes = append(r.nodes, n)
	}
	return nil
}

// localReplay replays events closed-loop in host time on every runtime
// in parallel (one goroutine each). When timed, each event's trap work is
// timed and stamped for the admit latency.
func localReplay(r *round, events []load.Event, timed bool) int64 {
	parts := shardEvents(events, len(r.nodes))
	var wg sync.WaitGroup
	start := now()
	for i, n := range r.nodes {
		wg.Add(1)
		go func(n *node, evs []load.Event) {
			defer wg.Done()
			n.replayLocal(evs, timed)
		}(n, parts[i])
	}
	wg.Wait()
	return now() - start
}

func (n *node) replayLocal(events []load.Event, timed bool) {
	g, tr := n.g, n.tr
	defer func(t0 int64) { n.loopNs += now() - t0 }(now())
	for i, ev := range events {
		es := tr.begin(lEvent)
		tr.nextEvent()
		t0 := now()
		before := n.emit.n.Load()
		_, trapped, err := g.step(ev)
		t1 := now()
		if err != nil {
			n.fail(err)
		}
		if timed {
			n.trapNs = append(n.trapNs, t1-t0)
			n.events++
			if trapped && ev.Op == load.OpRecovery {
				n.recQuarter[i*4/len(events)]++
			}
			// The event's telemetry is the emitter's newest; its admission
			// completes the event's trap-to-aggregator path.
			if n.emit.n.Load() > before {
				n.admit.stamp("", n.emit.last, t0)
			}
		}
		if n.session > 0 {
			if st := g.apps[ev.App]; st.events >= n.session {
				if err := n.sessionEnd(st); err != nil {
					n.fail(err)
				}
			}
		}
		if (i+1)%drainEvery == 0 {
			n.drain()
		}
		tr.end(es)
	}
	n.drain()
}

func (n *node) drain() {
	s := n.tr.begin(lDrain)
	d := n.hub.Drain()
	n.tr.end(s)
	n.tr.items(lDrain, d)
}

// localMigrations moves apps between the two runtimes through their
// migration agents (freeze, export, import, commit), timing each from
// the request to the commit landing at the source.
func localMigrations(r *round) {
	if len(r.nodes) < 2 {
		return
	}
	rng := rand.New(rand.NewSource(r.seed ^ 0x6D696772617465))
	owner := make([]int, len(r.specs))
	for i := range owner {
		owner[i] = i % len(r.nodes)
	}
	for j := 0; j < migrationsPerRound; j++ {
		app := rng.Intn(len(r.specs))
		src := r.nodes[owner[app]]
		dstIdx := (owner[app] + 1 + rng.Intn(len(r.nodes)-1)) % len(r.nodes)
		dst := r.nodes[dstIdx]
		name := r.specs[app].name
		st := src.g.apps[uint8(app)]
		ms := r.mainTr.begin(lMigrate)
		t0 := now()
		mig, err := localMigrate(src, dst, st)
		mig.ns = now() - t0
		r.mainTr.end(ms)
		r.attempted++
		if err != nil {
			r.fail(fmt.Errorf("migrate %s %s>%s: %w", name, src.id, dst.id, err))
			continue
		}
		r.migrations = append(r.migrations, mig)
		delete(src.g.apps, uint8(app))
		st.viewIdx = dst.vm.Runtime.ViewIndex(name)
		dst.g.apps[uint8(app)] = st
		owner[app] = dstIdx
	}
}

func localMigrate(src, dst *node, st *appState) (migration, error) {
	var mig migration
	if err := src.agent.Freeze(st.name); err != nil {
		return mig, err
	}
	img, err := src.agent.Export(st.name, src.id, 0)
	if err != nil {
		src.agent.Abort(st.name)
		return mig, err
	}
	mig.imageBytes = len(img)
	want, err := migrate.ViewDigest(st.cfg)
	if err != nil {
		src.agent.Abort(st.name)
		return mig, err
	}
	resolve := func(d [32]byte) (*kview.View, error) {
		if d != want {
			return nil, fmt.Errorf("view digest %x does not match %s", d[:6], st.name)
		}
		return st.cfg, nil
	}
	_, _, applied, skipped, err := dst.agent.Import(img, resolve)
	if err != nil {
		src.agent.Abort(st.name)
		return mig, err
	}
	mig.applied, mig.skipped = applied, skipped
	// Called in-process, the commit has landed when Commit returns; take
	// its signal so the channel is empty for the next move.
	src.agent.Commit(st.name)
	return mig, <-src.agent.committed
}
