package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"facechange/internal/kview"
)

// Shared-core view merging (Options.SharedCore): the eval.sharedcore
// ablation graduated into a runtime policy. When applications are
// co-scheduled on one vCPU, the context-switch trap grows a per-core
// member set instead of ping-ponging root swaps: the incoming task's view
// is unioned into a merged view covering every co-scheduled app, built
// through the ordinary load path (content-addressed cache, refcounted,
// snapshot-capable) and installed once — after which quantum-frequency
// switching collapses into same-view elisions. Detection attribution is
// untouched: recovery and trap events carry the faulting task's comm.

// sharedCoreMaxMembers caps a merged view's member count. A union's
// exposed kernel code grows with every member, so past the cap the set
// restarts from the incoming app instead of widening further.
const sharedCoreMaxMembers = 4

// sharedCoreRateThreshold is the adaptive policy's pressure bar: a vCPU
// merges only after this many would-switch decisions landed within the
// rate window. It is also the switch-stamp buffer's size.
const sharedCoreRateThreshold = 8

// DefaultSharedCoreRateWindow is the adaptive policy's default cycle
// window (Options.SharedCoreRateWindow overrides it): the span within
// which sharedCoreRateThreshold would-switches mark a vCPU hot enough to
// merge.
const DefaultSharedCoreRateWindow = 1 << 20

// sharedCoreResolve is the context-switch trap's shared-core entry: the
// plain policy merges on first contact; the adaptive one makes merging
// earn its exposure. Adaptive resolution is sticky — a task already
// covered by the active union stays on it, so a merged core does not
// oscillate when its own elisions cool the pressure window — and gated:
// an uncovered task joins a union only when this vCPU's recent
// would-switch rate clears the threshold. Denied (suspect-split) views
// always resolve to themselves.
func (r *Runtime) sharedCoreResolve(idx int, st *cpuViewState) int {
	if !r.opts.SharedCoreAdaptive {
		return r.sharedCoreTarget(idx, st)
	}
	if r.scDeny[idx] {
		return idx
	}
	cur := st.active
	if cur == idx {
		return idx
	}
	for _, m := range r.mergedOf[cur] {
		if m == idx {
			return cur
		}
	}
	if !st.noteSwitchPressure(r.m.Cycles(), r.scRateWindow) {
		return idx
	}
	return r.sharedCoreTarget(idx, st)
}

// noteSwitchPressure stamps one would-switch decision and reports whether
// the vCPU is above the merge threshold: the oldest of the last
// sharedCoreRateThreshold stamps still falls within the window.
func (st *cpuViewState) noteSwitchPressure(now, window uint64) bool {
	hot := st.scFilled == sharedCoreRateThreshold && now-st.scStamps[st.scPos] <= window
	st.scStamps[st.scPos] = now
	st.scPos = (st.scPos + 1) % sharedCoreRateThreshold
	if st.scFilled < sharedCoreRateThreshold {
		st.scFilled++
	}
	return hot
}

// sharedCoreTarget resolves a context-switch decision under SharedCore:
// given the incoming task's own view index (a custom view, never
// FullView), return the view to install on this vCPU. In steady state —
// the active merged view already covers the task — this is a slice scan
// and returns st.active, which the caller's same-view elision then skips
// entirely. Only member-set growth loads a new merged view; if that load
// fails (cache pressure, injected faults), the task's own view is the
// fallback — correctness never depends on the merge.
func (r *Runtime) sharedCoreTarget(idx int, st *cpuViewState) int {
	cur := st.active
	if cur == idx || r.scDeny[idx] {
		return idx
	}
	members := r.mergedOf[cur]
	if members == nil && cur != FullView {
		// A base view acts as its own singleton member set.
		r.scSingle[0] = cur
		members = r.scSingle[:]
	}
	for _, m := range members {
		if m == idx {
			return cur
		}
	}
	set := make([]int, 0, len(members)+1)
	set = append(set, members...)
	set = append(set, idx)
	sort.Ints(set)
	if len(set) > sharedCoreMaxMembers {
		set = set[:1]
		set[0] = idx
	}
	if len(set) == 1 {
		return set[0]
	}
	for _, m := range set {
		if r.scDeny[m] {
			// A suspect member poisons the whole union: the incoming task
			// runs under its own precise view instead.
			return idx
		}
	}
	r.scKey = appendSetKey(r.scKey[:0], set)
	if mi, ok := r.mergedIdx[string(r.scKey)]; ok && r.viewByIndex(mi) != nil {
		return mi
	}
	mi, err := r.loadMergedView(set, string(r.scKey))
	if err != nil {
		return idx
	}
	return mi
}

// loadMergedView builds and registers the union view for a sorted member
// set. Caller holds mu.
func (r *Runtime) loadMergedView(set []int, key string) (int, error) {
	cfgs := make([]*kview.View, 0, len(set))
	names := make([]string, 0, len(set))
	for _, i := range set {
		v := r.viewByIndex(i)
		if v == nil {
			return 0, fmt.Errorf("core: shared-core member %d not loaded", i)
		}
		cfgs = append(cfgs, v.Cfg)
		names = append(names, v.Name)
	}
	cfg := kview.UnionViews("shared:"+strings.Join(names, "+"), cfgs...)
	idx, _, err := r.loadView(cfg, nil)
	if err != nil {
		return 0, err
	}
	r.mergedIdx[key] = idx
	r.mergedOf[idx] = append([]int(nil), set...)
	r.MergedViewLoads++
	return idx, nil
}

// retireMergedFor cleans the merge registry after view idx unloaded (or
// turned suspect): drop idx's own registry entries if it was a merged
// view, then unload every merged view that had idx as a member — their
// unions would otherwise keep exposing the departed application's kernel
// code. Returns the number of merged views retired. Caller holds mu.
func (r *Runtime) retireMergedFor(idx int) int {
	if set, ok := r.mergedOf[idx]; ok {
		delete(r.mergedIdx, string(appendSetKey(r.scKey[:0], set)))
		delete(r.mergedOf, idx)
	}
	var retire []int
	for mi, set := range r.mergedOf {
		for _, m := range set {
			if m == idx {
				retire = append(retire, mi)
				break
			}
		}
	}
	// Deterministic retirement order (map iteration order is not).
	sort.Ints(retire)
	for _, mi := range retire {
		// mergedOf tracks only live merged views and revert-to-full cannot
		// fail, so the unload cannot error.
		_ = r.unloadView(mi)
	}
	return len(retire)
}

// SplitShared splits the named view out of shared-core merging: every
// union counting it as a member is retired (vCPUs running one revert and
// re-resolve at their next trap) and the view joins the deny-list, so it
// never merges again and co-scheduled peers stop sharing its exposure.
// This is the adaptive policy's verdict hook — a detection engine that
// suspects an application calls it to narrow that application back to
// its precise view. Returns false when no view of that name is loaded.
//
// Call it from the telemetry pipeline's drain side (a hub sink), never
// from an emitter: emitters run inside the trap path with the runtime's
// lock held, and SplitShared takes that lock.
func (r *Runtime) SplitShared(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.byName[name]
	if !ok {
		return false
	}
	r.scDeny[idx] = true
	r.MergedViewSplits += uint64(r.retireMergedFor(idx))
	return true
}

// SharedSuspects returns the sorted view indices on the shared-core
// deny-list. Safe concurrently with traps.
func (r *Runtime) SharedSuspects() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.scDeny))
	for i := range r.scDeny {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// appendSetKey renders a sorted member set as a registry key into dst
// (reused scratch; lookups via r.mergedIdx[string(key)] do not allocate).
func appendSetKey(dst []byte, set []int) []byte {
	for _, i := range set {
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, '+')
	}
	return dst
}

// ActiveCovers reports whether the view active on a vCPU serves view idx:
// either idx itself is installed, or a shared-core merged view counting
// idx among its members is. Load drivers use this instead of comparing
// ActiveView, which under SharedCore legitimately diverges from the
// task's own view index.
func (r *Runtime) ActiveCovers(cpuID, idx int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.cpus[cpuID].active
	if cur == idx {
		return true
	}
	for _, m := range r.mergedOf[cur] {
		if m == idx {
			return true
		}
	}
	return false
}

// MergedViews returns a copy of the shared-core merge registry: merged
// view index → sorted member base view indices. Empty unless
// Options.SharedCore built merged views. Safe concurrently with traps.
func (r *Runtime) MergedViews() map[int][]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int][]int, len(r.mergedOf))
	for mi, set := range r.mergedOf {
		out[mi] = append([]int(nil), set...)
	}
	return out
}
