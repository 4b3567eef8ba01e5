package migrate

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"facechange/internal/core"
	"facechange/internal/evolve"
	"facechange/internal/kview"
)

// Agent is the standard node-side migration endpoint: it binds the
// freeze/export/commit/abort/import lifecycle to one runtime (and,
// optionally, its evolver) and satisfies the fleet client's
// MigrationAgent contract.
type Agent struct {
	rt  *core.Runtime
	evo *evolve.Evolver

	mu     sync.Mutex
	frozen map[string]*core.FrozenView
}

// NewAgent creates an agent for the runtime; evo may be nil when the node
// runs no evolver (the image then carries generation 0 and no deny-list).
func NewAgent(rt *core.Runtime, evo *evolve.Evolver) *Agent {
	return &Agent{rt: rt, evo: evo, frozen: make(map[string]*core.FrozenView)}
}

// Frozen reports whether an app is currently checkpointed and awaiting a
// commit-or-abort decision.
func (a *Agent) Frozen(app string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.frozen[app]
	return ok
}

// Freeze checkpoints the app: its view detaches from every vCPU (each
// reverts to the full kernel view, so the guest keeps running) while all
// view state — deltas, recovered spans, bindings — is held for export.
func (a *Agent) Freeze(app string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.frozen[app]; ok {
		return fmt.Errorf("migrate: %q is already frozen", app)
	}
	f, err := a.rt.FreezeApp(app)
	if err != nil {
		return err
	}
	a.frozen[app] = f
	return nil
}

// Export renders the frozen app's canonical migration image. The image
// owns its bytes: it is encoded before Export returns, while the exported
// deltas still alias the frozen view's pages, so a later Commit or Abort
// cannot change it.
func (a *Agent) Export(app, srcNode string, finalSeq uint64) ([]byte, error) {
	a.mu.Lock()
	f := a.frozen[app]
	a.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("migrate: %q is not frozen", app)
	}
	st, err := a.rt.ExportViewState(f)
	if err != nil {
		return nil, err
	}
	var evoSt *evolve.AppState
	if a.evo != nil {
		es := a.evo.ExportApp(app)
		evoSt = &es
	}
	im, err := BuildImage(st, srcNode, finalSeq, evoSt)
	if err != nil {
		return nil, err
	}
	return im.Encode()
}

// Commit finalizes a migration that landed on the target: the frozen view
// unloads through the ordinary path, releasing its interned-page cache
// references.
func (a *Agent) Commit(app string) error { return a.settle(app, a.rt.CommitMigration) }

// Abort restores a frozen app exactly as it was: bindings reattach,
// deferred switches re-arm, active vCPUs re-install the view.
func (a *Agent) Abort(app string) error { return a.settle(app, a.rt.ThawView) }

// settle applies the commit-or-abort decision to a frozen app. The lock
// spans the runtime call, so Frozen reports false only once the decision
// has landed: a caller that waits for it may then drive the runtime.
func (a *Agent) settle(app string, apply func(*core.FrozenView) error) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	f := a.frozen[app]
	if f == nil {
		return fmt.Errorf("migrate: %q is not frozen", app)
	}
	delete(a.frozen, app)
	return apply(f)
}

// Import restores an image on this runtime, resolving the pinned view
// configuration through the caller's content-addressed store. The decoded
// deltas alias img; the restore finishes before Import returns and keeps
// none of them, so the caller may reuse img afterwards.
func (a *Agent) Import(img []byte, resolve func(digest [sha256.Size]byte) (*kview.View, error)) (app string, idx, applied, skipped int, err error) {
	im, err := Decode(img)
	if err != nil {
		return "", 0, 0, 0, err
	}
	cfg, err := resolve(im.ViewDigest)
	if err != nil {
		return im.App, 0, 0, 0, err
	}
	res, err := Restore(a.rt, a.evo, im, cfg)
	if err != nil {
		return im.App, 0, 0, 0, err
	}
	return im.App, res.Index, res.DeltasApplied, res.DeltasSkipped, nil
}
