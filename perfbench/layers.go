package main

import (
	"facechange/internal/telemetry"
)

// roundCounts are the layers' own counters, read at the end of a round
// while its runtimes and sinks are still up.
type roundCounts struct {
	distinctPages, dedupedPages uint64
	eptpSwaps, verdicts         uint64
	generations, denied         uint64
	drops                       uint64
	recQuarter                  [4]uint64
}

func (r *round) collect() {
	c := &r.counts
	aggs := []*telemetry.Aggregator{}
	for _, n := range r.nodes {
		cs := n.vm.Runtime.CacheStats()
		c.distinctPages += uint64(cs.DistinctPages)
		c.dedupedPages += cs.DedupedPages
		for q, v := range n.recQuarter {
			c.recQuarter[q] += v
		}
		if n.agg != nil {
			aggs = append(aggs, n.agg)
			c.verdicts += n.det.Stats().Verdicts
			c.drops += n.hub.Drops()
		}
		if n.evo != nil {
			st := n.evo.Stats()
			c.generations += st.Generations
			c.denied += st.Denied
		}
	}
	if fs := r.fleet; fs != nil {
		aggs = append(aggs, fs.agg)
		c.verdicts += fs.det.Stats().Verdicts
		c.drops += fs.hub.Drops()
		for _, fn := range fs.fnodes {
			c.drops += fn.Status().Drops
		}
	}
	for _, a := range aggs {
		c.eptpSwaps += a.Stats().ByKind[telemetry.KindEPTPSwap]
	}
}

// perLayer derives the per-layer metrics from the traced rounds' spans
// and counters, and the tracing overhead from traced against untraced
// replay time.
func (s *summary) perLayer(plain, traced []*round) {
	all := newTracer("all")
	var c roundCounts
	var sig signature
	var late []int64
	var mig []migration
	var tracedReplay, plainReplay []int64
	// The replay goroutines' event-tree time, fold time, loop time and
	// pacing wait: what the accounted share compares.
	var eventNs, foldNs, loopNs, paceNs int64
	var joinNs, joinBytes, convergeNs []int64
	var relayBytes, relayEvents, dups uint64
	queueHigh := 0
	for _, r := range plain {
		plainReplay = append(plainReplay, r.workNs)
	}
	for _, r := range traced {
		tracedReplay = append(tracedReplay, r.workNs)
		sig = r.sig
		for _, t := range r.tracers() {
			all.merge(t)
			s.tracers = append(s.tracers, t)
		}
		for _, n := range r.nodes {
			eventNs += n.tr.eventNs
			foldNs += n.tr.foldNs
		}
		late = append(late, r.late99)
		loopNs += r.loopNs
		paceNs += r.paceNs
		mig = append(mig, r.migrations...)
		rc := r.counts
		c.distinctPages += rc.distinctPages
		c.dedupedPages += rc.dedupedPages
		c.eptpSwaps += rc.eptpSwaps
		c.verdicts += rc.verdicts
		c.generations += rc.generations
		c.denied += rc.denied
		c.drops += rc.drops
		for q := range c.recQuarter {
			c.recQuarter[q] += rc.recQuarter[q]
		}
		if fs := r.fleet; fs != nil {
			joinNs = append(joinNs, fs.joinNs...)
			for _, b := range fs.joinBytes {
				joinBytes = append(joinBytes, int64(b))
			}
			convergeNs = append(convergeNs, fs.convergeNs)
			relayBytes += fs.relayBytes
			relayEvents += fs.relayEvents
			dups += fs.dups
			if fs.queueHigh > queueHigh {
				queueHigh = fs.queueHigh
			}
		}
	}
	nr := float64(len(traced))
	a := &all.agg

	p := func(l layer, q, scale float64) float64 { return quantile(a[l].durs, q) / scale }
	busyMs := func(l layer) float64 { return float64(a[l].busy) / 1e6 / nr }
	perItem := func(l layer) float64 { return ratio(float64(a[l].busy), float64(a[l].items)) }
	calls := func(l layer) float64 { return float64(a[l].calls) / nr }

	ctr := sig.ctr
	s.put("core.switch.calls", calls(lSwitch), "count")
	s.put("core.switch.ns_p50", p(lSwitch, 0.5, 1), "ns")
	s.put("core.switch.ns_p99", p(lSwitch, 0.99, 1), "ns")
	s.put("core.switch.busy_ms", busyMs(lSwitch), "ms")
	s.put("core.switch.elided_ratio", ratio(float64(ctr.elided), float64(ctr.elided+ctr.switches)), "ratio")
	s.put("core.resume.calls", calls(lResume), "count")
	s.put("core.resume.ns_p50", p(lResume, 0.5, 1), "ns")
	s.put("core.recovery.calls", calls(lRecovery), "count")
	s.put("core.recovery.ns_p50", p(lRecovery, 0.5, 1), "ns")
	s.put("core.recovery.ns_p99", p(lRecovery, 0.99, 1), "ns")
	s.put("core.recovery.busy_ms", busyMs(lRecovery), "ms")
	s.put("core.recovery.warm_ratio", ratio(float64(ctr.warm), float64(ctr.warm+ctr.recoveries)), "ratio")
	s.put("core.recovery.decay_ratio", ratio(float64(c.recQuarter[3]), float64(c.recQuarter[0])), "ratio")
	s.put("core.loadview.calls", calls(lLoadView), "count")
	s.put("core.loadview.ms_p50", p(lLoadView, 0.5, 1e6), "ms")
	s.put("core.loadview.busy_ms", busyMs(lLoadView), "ms")
	s.put("core.unloadview.busy_ms", busyMs(lUnloadView), "ms")

	s.put("mem.cache.distinct_pages", float64(c.distinctPages)/nr, "count")
	s.put("mem.cache.dedup_ratio", ratio(float64(c.dedupedPages), float64(c.dedupedPages+c.distinctPages)), "ratio")
	s.put("mem.ept.root_swaps_per_switch", ratio(float64(c.eptpSwaps), float64(ctr.switches)), "ratio")

	s.put("telemetry.emit.ns_p50", p(lEmit, 0.5, 1), "ns")
	s.put("telemetry.drain.ns_per_event", perItem(lDrain), "ns")
	s.put("telemetry.drain.busy_ms", busyMs(lDrain), "ms")
	s.put("telemetry.drops", float64(c.drops), "count")

	s.put("detect.ns_per_event", perItem(lDetect), "ns")
	s.put("detect.busy_ms", busyMs(lDetect), "ms")
	s.put("detect.verdicts", float64(c.verdicts)/nr, "count")

	s.put("evolve.ns_per_event", perItem(lEvolve), "ns")
	s.put("evolve.generations", float64(c.generations)/nr, "count")
	s.put("evolve.denied", float64(c.denied)/nr, "count")
	s.put("evolve.publish.calls", calls(lPublish), "count")
	s.put("evolve.publish.ms_p50", p(lPublish, 0.5, 1e6), "ms")

	s.put("fleet.join.ms", median(joinNs)/1e6, "ms")
	s.put("fleet.join.bytes", median(joinBytes), "bytes")
	s.put("shard.converge_ms", median(convergeNs)/1e6, "ms")
	s.put("fleet.relay.bytes_per_event", ratio(float64(relayBytes), float64(relayEvents)), "bytes")
	s.put("fleet.relay.dups", float64(dups), "count")
	s.put("fleet.admit.ns_per_event", perItem(lAdmit), "ns")
	s.put("shard.relay_queue.high_water", float64(queueHigh), "count")

	var imgBytes []int64
	var applied, skipped int
	for _, m := range mig {
		imgBytes = append(imgBytes, int64(m.imageBytes))
		applied += m.applied
		skipped += m.skipped
	}
	s.put("migrate.samples", float64(len(mig)), "count")
	s.put("migrate.export_ms_p50", p(lExport, 0.5, 1e6), "ms")
	s.put("migrate.import_ms_p50", p(lImport, 0.5, 1e6), "ms")
	s.put("migrate.commit_ms_p50", p(lCommit, 0.5, 1e6), "ms")
	s.put("migrate.image_bytes_p50", median(imgBytes), "bytes")
	s.put("migrate.deltas_skipped_ratio", ratio(float64(skipped), float64(applied+skipped)), "ratio")

	s.put("load.gen_late_ms_p99", median(late)/1e6, "ms")
	s.put("trace.overhead_ratio", ratio(median(tracedReplay), median(plainReplay)), "ratio")
	s.put("trace.accounted_ratio", ratio(float64(eventNs), float64(loopNs-paceNs)), "ratio")
	s.put("trace.fold_ms", float64(foldNs)/1e6/nr, "ms")
	for l := layer(0); l < numLayers; l++ {
		s.put(l.String()+".self_ms", float64(a[l].self)/1e6/nr, "ms")
	}
}

// tracers lists the round's span tracers: the main (set-up and
// migration) track, each replay goroutine's, and the fleet aggregator's.
func (r *round) tracers() []*tracer {
	var out []*tracer
	if r.mainTr != nil {
		out = append(out, r.mainTr)
	}
	for _, n := range r.nodes {
		if n.tr != nil {
			out = append(out, n.tr)
		}
	}
	if r.fleet != nil && r.fleet.aggTr != nil {
		out = append(out, r.fleet.aggTr)
	}
	return out
}
