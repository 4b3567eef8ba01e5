package load

import (
	"fmt"
	"math/rand"
	"time"

	"facechange"
	"facechange/internal/core"
	"facechange/internal/fleet"
	fleetshard "facechange/internal/fleet/shard"
	"facechange/internal/migrate"
	"facechange/internal/telemetry"
)

// teeEmitter fans one runtime's telemetry into the local histogram sink
// (the deterministic report numbers) and the fleet node's relay buffer
// (the control plane's central hub) at the same time.
type teeEmitter struct {
	sink *telemetry.HistogramSink
	buf  *telemetry.RemoteBuffer
}

func (t teeEmitter) Emit(ev telemetry.Event) {
	t.sink.Emit(ev)
	t.buf.Emit(ev)
}

// runFleet is the fleet drive mode: instead of loading views locally,
// the view material is published to an in-process control plane;
// cfg.Nodes runtime VMs join as fleet nodes over pipes, delta-sync the
// catalog through one shared chunk store, and are then driven through the
// same replay engine — exercising switch and recovery under views that
// arrived over the wire, with telemetry relayed to the central hub.
//
// The plane has max(cfg.Shards, 1) shards. With more than one, the
// catalog is partitioned onto a consistent-hash ring and replicated by
// the mirror mesh, each node homes onto its ring shard, and telemetry
// takes the shard-local-then-relay path into the aggregator. The replay
// is byte-identical either way.
func runFleet(cfg *RunConfig) (*Report, error) {
	cfg.Runtimes = cfg.Nodes
	if cfg.Runtimes > len(cfg.Trace.Shares) {
		cfg.Runtimes = len(cfg.Trace.Shares)
	}
	specs, modules, err := buildSpecs(cfg)
	if err != nil {
		return nil, err
	}

	hub := telemetry.NewHub(telemetry.HubConfig{})
	hub.Start()
	defer hub.Close()

	infos := make([]fleet.ShardInfo, max(cfg.Shards, 1))
	for i := range infos {
		infos[i].ID = fmt.Sprintf("s-%d", i)
	}
	plane, err := fleetshard.NewPlane(fleetshard.PlaneConfig{Shards: infos, Hub: hub, Logf: cfg.Logf})
	if err != nil {
		return nil, fmt.Errorf("load: plane: %w", err)
	}
	defer plane.Close()
	for _, spec := range specs {
		if err := plane.Publish(spec.cfg); err != nil {
			return nil, fmt.Errorf("load: publish %s: %w", spec.name, err)
		}
	}
	if err := plane.WaitConverged(30 * time.Second); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	digest := plane.Digest()

	store := fleet.NewChunkStore()
	var opts *core.Options
	if cfg.Legacy {
		o := core.DefaultOptions()
		opts = &o
	} else {
		o := core.FastOptions()
		opts = &o
	}
	opts.SharedCore = cfg.SharedCore

	type member struct {
		g    *rig
		node *fleet.Node
	}
	members := make([]member, 0, cfg.Runtimes)
	flt := &FleetReport{Nodes: cfg.Runtimes, CatalogDigest: digest, Converged: true}
	if cfg.Shards > 1 {
		flt.Shards = cfg.Shards
	}
	defer func() {
		for _, m := range members {
			m.node.Close()
		}
	}()
	for i := 0; i < cfg.Runtimes; i++ {
		vm, err := facechange.NewVM(facechange.VMConfig{
			NCPU:    cfg.Trace.Cfg.CPUs,
			Modules: modules,
			Options: opts,
		})
		if err != nil {
			return nil, fmt.Errorf("load: node %d: %w", i, err)
		}
		id := fmt.Sprintf("load-%d", i)
		h := plane.NodeDialer(id)
		n := fleet.NewNode(fleet.NodeConfig{
			ID:            id,
			Dial:          h.Dial,
			OnShardMap:    h.OnShardMap,
			Store:         store,
			Runtime:       vm.Runtime,
			Migrate:       migrate.NewAgent(vm.Runtime, nil),
			FlushInterval: 5 * time.Millisecond,
			Logf:          cfg.Logf,
		})
		n.Start()
		if err := n.WaitDigest(digest, 30*time.Second); err != nil {
			n.Close()
			return nil, fmt.Errorf("load: node %d join: %w", i, err)
		}
		flt.JoinBytes = append(flt.JoinBytes, n.Status().BytesIn)
		g := newRigOn(vm.Kernel, vm.Runtime)
		g.shared = cfg.SharedCore
		// NewNode pointed the runtime's emitter at the relay buffer; tee
		// it so the local sink still sees every event for the report.
		vm.Runtime.SetEmitter(teeEmitter{sink: g.res.sink, buf: n.Telemetry()})
		g.closed = cfg.Trace.Cfg.Arrival == "closed"
		g.think = cfg.Trace.Cfg.Think
		for _, spec := range specs {
			if spec.idx%cfg.Runtimes != i {
				continue
			}
			idx := vm.Runtime.ViewIndex(spec.name)
			if idx == core.FullView {
				return nil, fmt.Errorf("load: node %d: synced catalog missing view %s", i, spec.name)
			}
			g.addApp(spec, idx)
		}
		cfg.Logf("load: node %d joined (%d bytes in)", i, n.Status().BytesIn)
		members = append(members, member{g: g, node: n})
	}

	// assign maps each app to the node currently hosting it; migration
	// waves rewrite it mid-replay. With MigrateRate zero this reduces to
	// the static app-mod-N sharding and a single round, byte-identical to
	// the plain fleet replay.
	assign := make([]int, len(specs))
	for i := range assign {
		assign[i] = specs[i].idx % cfg.Runtimes
	}
	waves := 0
	if cfg.MigrateRate > 0 {
		if cfg.Runtimes < 2 {
			return nil, fmt.Errorf("load: -migrate-rate needs at least 2 fleet nodes after clamping")
		}
		waves = int(cfg.MigrateRate * float64(len(cfg.Trace.Events)) / 1000)
		if waves < 1 {
			waves = 1
		}
	}

	replayRound := func(events []Event) error {
		parts := make([][]Event, len(members))
		for _, ev := range events {
			n := assign[int(ev.App)]
			parts[n] = append(parts[n], ev)
		}
		errs := make(chan error, len(members))
		for i, m := range members {
			go func(i int, m member) {
				if err := m.g.replay(parts[i]); err != nil {
					errs <- fmt.Errorf("load: node %d: %w", i, err)
					return
				}
				errs <- nil
			}(i, m)
		}
		var first error
		for range members {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	// The migration stream is seeded from the trace, so every run replays
	// the same moves at the same barriers.
	mrng := rand.New(rand.NewSource(cfg.Trace.Cfg.Seed ^ 0x6D696772617465))
	events := cfg.Trace.Events
	for w := 0; w <= waves; w++ {
		lo, hi := len(events)*w/(waves+1), len(events)*(w+1)/(waves+1)
		if err := replayRound(events[lo:hi]); err != nil {
			return nil, err
		}
		if w == waves {
			break
		}
		appIdx := mrng.Intn(len(specs))
		src := assign[appIdx]
		dst := (src + 1 + mrng.Intn(cfg.Runtimes-1)) % cfg.Runtimes
		spec := specs[appIdx]
		mr, err := plane.Migrate(spec.name, fmt.Sprintf("load-%d", src), fmt.Sprintf("load-%d", dst), 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("load: migrate %s load-%d>load-%d: %w", spec.name, src, dst, err)
		}
		st := members[src].g.apps[uint8(appIdx)]
		delete(members[src].g.apps, uint8(appIdx))
		newIdx := members[dst].g.rt.ViewIndex(spec.name)
		if newIdx == core.FullView {
			return nil, fmt.Errorf("load: migrate %s: view not bound on load-%d after import", spec.name, dst)
		}
		st.viewIdx = newIdx
		members[dst].g.apps[uint8(appIdx)] = st
		assign[appIdx] = dst
		flt.Migrations++
		flt.MigrateBytes += uint64(mr.ImageBytes)
		flt.DeltasApplied += uint64(mr.DeltasApplied)
		flt.DeltasSkipped += uint64(mr.DeltasSkipped)
		cfg.Logf("load: migrated %s load-%d>load-%d (%dB image, %d deltas applied, %d skipped)",
			spec.name, src, dst, mr.ImageBytes, mr.DeltasApplied, mr.DeltasSkipped)
	}
	results := make([]*runtimeResult, cfg.Runtimes)
	nodes := make([]*fleet.Node, len(members))
	for i, m := range members {
		results[i], nodes[i] = m.g.res, m.node
		if m.node.Digest() != digest {
			flt.Converged = false
		}
	}
	if err := fleet.WaitRelayed(30*time.Second, nodes...); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	hub.Drain()
	flt.RelayedEvents = hub.Emitted()
	cfg.Logf("load: fleet replay done: %d events relayed, converged=%v", flt.RelayedEvents, flt.Converged)
	return assemble(cfg, specs, results, flt), nil
}
