// Package migrate implements live view-state migration: moving a running
// application's kernel view — and everything the fleet has learned about
// it — from one runtime node to another with zero lost telemetry.
//
// What travels is deliberately small. The view's code content is already
// fleet property: every page of it is an interned, content-addressed
// catalog chunk the target mirrors, so the image carries only the view's
// content digest and the target reassembles the configuration from its
// own chunk store. What is node-local — and therefore must travel — is:
//
//   - the COW page deltas: shadow pages privatized by kernel code
//     recovery, whose bytes diverged from the catalog chunks;
//   - the recovered-span set (the lazy-recovery bookkeeping and the
//     administrator's amelioration reference);
//   - the per-vCPU switch summary at freeze time (active installs and
//     deferred switches), for end-to-end fidelity checks;
//   - the evolution generation and deny-list (the verdict-gated profile
//     the evolver learned);
//   - the telemetry sequence watermark: the source node's cumulative
//     relay sequence after its rings drained, which pins exactly how many
//     events the source contributed before the cutover.
//
// The cutover is two-phase on the source. Freeze quiesces the view (vCPUs
// revert to the full kernel view, deferred switches resolve, name
// bindings detach) while the guest keeps running; the node then drains
// its per-vCPU rings through the hub and flushes its relay buffer, which
// makes the watermark final — every source event is either acknowledged
// upstream or sitting in the flushed stream ahead of the marker. Only
// after the target acknowledges the import does the source commit
// (ordinary view unload, releasing cache refs); a timeout or refusal
// thaws instead, restoring the source exactly. The aggregator's
// SeqTracker keeps per-node cumulative cursors, so the fleet-wide event
// count is the sum over nodes and the move changes nothing: source events
// count under the source's cursor up to the watermark, target events
// under the target's.
package migrate

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"facechange/internal/core"
	"facechange/internal/evolve"
	"facechange/internal/kview"
)

// ViewDigest is the content address of a view configuration — the same
// sha256-of-canonical-bytes the fleet catalog keys views by.
func ViewDigest(cfg *kview.View) ([sha256.Size]byte, error) {
	b, err := cfg.MarshalBinary()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// BuildImage assembles the canonical migration image from a frozen view's
// core export, the source node's identity and final telemetry watermark,
// and (optionally) the application's evolution state.
func BuildImage(st *core.ViewState, srcNode string, finalSeq uint64, evoSt *evolve.AppState) (*Image, error) {
	if st == nil || st.Cfg == nil {
		return nil, fmt.Errorf("migrate: nil view state")
	}
	vd, err := ViewDigest(st.Cfg)
	if err != nil {
		return nil, fmt.Errorf("migrate: view digest: %w", err)
	}
	im := &Image{
		App:        st.App,
		SrcNode:    srcNode,
		ViewDigest: vd,
		FinalSeq:   finalSeq,
		Active:     append([]bool(nil), st.Active...),
		Deferred:   append([]bool(nil), st.Deferred...),
		Recovered:  st.Recovered,
		Deltas:     st.Deltas,
	}
	if evoSt != nil {
		im.Gen = evoSt.Gen
		im.Denied = append([]evolve.DeniedSpan(nil), evoSt.Denied...)
	}
	return im, nil
}

// Restore applies a migration image on the target runtime. cfg is the
// view configuration reassembled from the target's own chunk store; its
// content digest must match the image's pin — the proof that no catalog
// content traveled, only deltas. The view materializes through the
// ordinary load path (interned pages shared), except that each delta is
// written once, straight into a private page, in place of the page it
// replaces; the recovered set reattaches, and — when an evolver is
// attached — the generation and deny-list merge newest-wins.
func Restore(rt *core.Runtime, evo *evolve.Evolver, im *Image, cfg *kview.View) (*core.ImportResult, error) {
	if cfg == nil {
		return nil, fmt.Errorf("migrate: restore %q: nil view config", im.App)
	}
	vd, err := ViewDigest(cfg)
	if err != nil {
		return nil, fmt.Errorf("migrate: restore %q: view digest: %w", im.App, err)
	}
	if !bytes.Equal(vd[:], im.ViewDigest[:]) {
		return nil, fmt.Errorf("migrate: restore %q: view digest mismatch: image pins %x, store assembled %x",
			im.App, im.ViewDigest[:8], vd[:8])
	}
	res, err := rt.ImportViewState(&core.ViewState{
		App:       im.App,
		Cfg:       cfg,
		Recovered: im.Recovered,
		Deltas:    im.Deltas,
		Active:    im.Active,
		Deferred:  im.Deferred,
	})
	if err != nil {
		return nil, err
	}
	if evo != nil {
		evo.ImportApp(evolve.AppState{App: im.App, Gen: im.Gen, View: cfg, Denied: im.Denied})
	}
	return res, nil
}
