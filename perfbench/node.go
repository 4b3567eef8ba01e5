package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"facechange"
	"facechange/internal/core"
	"facechange/internal/detect"
	"facechange/internal/evolve"
	"facechange/internal/kview"
	"facechange/internal/migrate"
	"facechange/internal/telemetry"
)

// node is one runtime under replay: a local runtime feeding its own hub,
// or a fleet node relaying to the plane.
type node struct {
	id    string
	vm    *facechange.VM
	g     *rig
	emit  *countingEmitter
	agent *timedAgent
	tr    *tracer // the replay goroutine's tracer; nil when untraced

	// Local workloads: the runtime's own hub, its admit sink and (on
	// session-churn) the detect-gated evolver and session length.
	hub     *telemetry.Hub
	admit   *admitSink
	evo     *evolve.Evolver
	session int
	kf      *kernelFacts

	// Per-round samples and gate counts, owned by the replay goroutine.
	trapNs, lateNs []int64
	events         uint64
	loopNs         int64     // host time inside this node's replay loops
	recQuarter     [4]uint64 // recovery traps per quarter of the timed replay
	errs           []error
	agg            *telemetry.Aggregator
	det            *detect.Engine
}

func bootNode(id string, ncpu int, modules []string) (*node, error) {
	opts := core.FastOptions()
	vm, err := facechange.NewVM(facechange.VMConfig{NCPU: ncpu, Modules: modules, Options: &opts})
	if err != nil {
		return nil, err
	}
	return &node{id: id, vm: vm, g: newRig(vm.Kernel, vm.Runtime)}, nil
}

// fail records a failed operation (the replay continues).
func (n *node) fail(err error) { n.errs = append(n.errs, fmt.Errorf("%s: %w", n.id, err)) }

// app returns the node's replay state for a named app.
func (n *node) app(name string) *appState {
	for _, st := range n.g.apps {
		if st.name == name {
			return st
		}
	}
	return nil
}

// hotplug swaps an app onto a new view through the runtime's public
// hot-plug calls (load the new view, bind the app, unload the old), then
// recomputes the app's pools from the view and resets its recovered
// spans. It backs both the evolver's publish and session ends.
func (n *node) hotplug(st *appState, v *kview.View) error {
	tr := n.g.tr
	old := st.viewIdx
	var idx int
	err := tr.traced(lLoadView, func() (err error) {
		idx, err = n.vm.Runtime.LoadView(v)
		return err
	})
	if err != nil {
		return fmt.Errorf("load %s: %w", st.name, err)
	}
	if err := tr.traced(lAssignView, func() error { return n.vm.Runtime.AssignView(st.name, idx) }); err != nil {
		return fmt.Errorf("assign %s: %w", st.name, err)
	}
	if err := tr.traced(lUnloadView, func() error { return n.vm.Runtime.UnloadView(old) }); err != nil {
		return fmt.Errorf("unload %s: %w", st.name, err)
	}
	st.viewIdx = idx
	st.events = 0
	if err := st.setView(n.kf, v); err != nil {
		return err
	}
	st.resetRecovered()
	return nil
}

// publish is the evolver's PublishFunc: the generation is hot-plugged
// synchronously at the drain point that cut it.
func (n *node) publish(app string, _ uint64, v *kview.View) error {
	st := n.app(app)
	if st == nil {
		return fmt.Errorf("perfbench: %s: publish for app %s not hosted here", n.id, app)
	}
	s := n.g.tr.begin(lPublish)
	err := n.hotplug(st, v)
	n.g.tr.end(s)
	return err
}

// sessionEnd hot-plugs the app's latest generation once its session has
// run its length.
func (n *node) sessionEnd(st *appState) error {
	v, _ := n.evo.View(st.name)
	return n.hotplug(st, v)
}

// timedAgent is the migration endpoint a node (or the local migration
// loop) drives: migrate.Agent with each phase traced and the source's
// commit signalled, so a migration is timed to the commit landing.
type timedAgent struct {
	a         *migrate.Agent
	tr        *tracer
	committed chan error
}

func newTimedAgent(a *migrate.Agent) *timedAgent {
	return &timedAgent{a: a, committed: make(chan error, 1)}
}

func (t *timedAgent) Freeze(app string) error {
	return t.tr.traced(lFreeze, func() error { return t.a.Freeze(app) })
}

func (t *timedAgent) Export(app, srcNode string, finalSeq uint64) (img []byte, err error) {
	t.tr.traced(lExport, func() error {
		img, err = t.a.Export(app, srcNode, finalSeq)
		return err
	})
	return img, err
}

func (t *timedAgent) Commit(app string) error {
	err := t.tr.traced(lCommit, func() error { return t.a.Commit(app) })
	select {
	case t.committed <- err:
	default:
	}
	return err
}

func (t *timedAgent) Abort(app string) error { return t.a.Abort(app) }

func (t *timedAgent) Import(img []byte, resolve func(digest [sha256.Size]byte) (*kview.View, error)) (app string, idx, applied, skipped int, err error) {
	t.tr.traced(lImport, func() error {
		app, idx, applied, skipped, err = t.a.Import(img, resolve)
		return err
	})
	return app, idx, applied, skipped, err
}

// awaitCommit waits for the source's commit to land.
func (t *timedAgent) awaitCommit(timeout time.Duration) error {
	select {
	case err := <-t.committed:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("source commit did not land within %v", timeout)
	}
}

// migration is one completed move's measurements.
type migration struct {
	ns               int64
	imageBytes       int
	applied, skipped int
}
