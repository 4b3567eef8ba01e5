// Live-migration events: EvMigrate moves a loaded view from the runtime
// under test onto a second, lazily booted target runtime through the real
// migration path — core freeze/export, the canonical wire image codec,
// restore on the target, commit (ordinary unload) on the source — and
// asserts the migration invariants inline:
//
//   - the image round-trips canonically (decode then re-encode is
//     byte-identical, so the digest pin is stable);
//   - every shipped COW delta is accounted for (applied or recorded as
//     skipped — never silently lost);
//   - the recovered-span set on the target is byte-identical to the
//     exported one (recovery bookkeeping survives the move);
//   - after the source commit, the shadow-page cache refcounts still
//     balance (the teardown released exactly the view's references);
//   - an aborted migration thaws the source exactly (the view is still
//     loaded and the switch state checks out).
//
// Telemetry exactness needs no extra assertion here: freeze and thaw go
// through the ordinary switch path, so the counting-sink parity checks at
// light cadence already prove no event was lost or duplicated, and the
// target runtime has no emitter to pollute the stream.
package sim

import (
	"bytes"
	"fmt"

	"facechange/internal/core"
	"facechange/internal/evolve"
	"facechange/internal/kernel"
	"facechange/internal/kview"
	"facechange/internal/migrate"
)

// migMaxImported caps the target runtime's view population on long runs:
// beyond it, the oldest imported view unloads (exercising the target's own
// refcount teardown) before the next import.
const migMaxImported = 6

// migTarget lazily boots the migration-target machine: a kernel with every
// standard module loaded (so any module space a source view references
// resolves) and a runtime with the default fast options — no injector and
// no emitter, so its activity never perturbs the source's fault accounting
// or telemetry parity.
func (s *Simulator) migTarget() (*core.Runtime, error) {
	if s.migRT != nil {
		return s.migRT, nil
	}
	k, err := kernel.New(kernel.Config{Clock: kernel.ClockKVM, NCPU: s.cfg.CPUs})
	if err != nil {
		return nil, fmt.Errorf("sim: boot migration target: %w", err)
	}
	for _, spec := range kernel.StandardModules() {
		if _, err := k.LoadModule(spec.Name); err != nil {
			return nil, fmt.Errorf("sim: migration target module %s: %w", spec.Name, err)
		}
	}
	rt, err := core.New(core.Setup{
		Machine:  k.M,
		Symbols:  k.Syms,
		TextSize: k.Img.TextSize(),
		Opts:     core.FastOptions(),
	})
	if err != nil {
		return nil, fmt.Errorf("sim: attach migration target runtime: %w", err)
	}
	rt.Enable()
	s.migRT = rt
	return rt, nil
}

// applyMigrate freezes a loaded view, round-trips it through the canonical
// migration image and restores it on the target runtime; ev.B selects the
// abort path (thaw instead of transfer) one time in four. With nothing
// loaded it checks that freezing an unbound app fails cleanly.
func (s *Simulator) applyMigrate(ev Event) error {
	if s.cfg.SharedCore || s.cfg.SharedCoreAdaptive {
		// Shared-core unions couple several apps to one view; migrating a
		// union is the fleet orchestrator's decision (split first), not a
		// single-app move, so the mix skips it deterministically.
		return nil
	}
	loaded := s.rt.LoadedIndices()
	if len(loaded) == 0 {
		if _, err := s.rt.FreezeApp("no-such-app"); err == nil {
			return fmt.Errorf("sim: freeze of an unbound app succeeded")
		}
		return nil
	}
	idx := loaded[int(ev.A)%len(loaded)]
	app := s.rt.ViewByIndex(idx).Name
	f, err := s.rt.FreezeView(idx)
	if err != nil {
		return err
	}

	if int(ev.B)%4 == 0 {
		// Scripted abort: thaw and verify the source is exactly restored —
		// the view must still be loaded; CheckSwitchState (run after every
		// event) proves the re-armed switch state balances.
		err := s.rt.ThawView(f)
		if s.rt.ViewByIndex(idx) == nil {
			return fmt.Errorf("sim: view %d gone after thaw", idx)
		}
		if err == nil {
			s.res.MigrateAborts++
		}
		return err
	}

	st, err := s.rt.ExportViewState(f)
	if err != nil {
		return s.migAbort(f, err)
	}
	var evoSt *evolve.AppState
	if s.tel != nil && s.tel.evo != nil {
		es := s.tel.evo.ExportApp(app)
		evoSt = &es
	}
	im, err := migrate.BuildImage(st, "sim-src", uint64(s.step), evoSt)
	if err != nil {
		return s.migAbort(f, err)
	}
	enc, err := im.Encode()
	if err != nil {
		return s.migAbort(f, err)
	}
	im2, err := migrate.Decode(enc)
	if err != nil {
		return s.migAbort(f, fmt.Errorf("sim: migration image does not decode: %w", err))
	}
	enc2, err := im2.Encode()
	if err != nil || !bytes.Equal(enc, enc2) {
		return s.migAbort(f, fmt.Errorf("sim: migration image re-encode diverged (err %v)", err))
	}

	rt2, err := s.migTarget()
	if err != nil {
		return s.migAbort(f, err)
	}
	if len(s.migImported) >= migMaxImported {
		if err := rt2.UnloadView(s.migImported[0]); err != nil {
			return s.migAbort(f, fmt.Errorf("sim: target unload: %w", err))
		}
		s.migImported = s.migImported[1:]
	}
	res, err := migrate.Restore(rt2, nil, im2, st.Cfg)
	if err != nil {
		// The fleet's refusal path: a failed import aborts the migration
		// and the source thaws.
		return s.migAbort(f, err)
	}
	if res.DeltasApplied+res.DeltasSkipped != len(im2.Deltas) {
		return fmt.Errorf("sim: migration lost deltas: %d applied + %d skipped != %d shipped",
			res.DeltasApplied, res.DeltasSkipped, len(im2.Deltas))
	}
	got := rt2.ViewByIndex(res.Index).Recovered()
	if !viewsEqual(got, im2.Recovered) {
		return fmt.Errorf("sim: recovered-span set diverged across migration of %q", app)
	}
	if err := rt2.CheckSwitchState(); err != nil {
		return fmt.Errorf("sim: migration target after import: %w", err)
	}
	s.migImported = append(s.migImported, res.Index)

	if err := s.rt.CommitMigration(f); err != nil {
		return err
	}
	if err := s.checkCacheBalance(); err != nil {
		return fmt.Errorf("sim: after migration commit of %q: %w", app, err)
	}
	s.res.Migrations++
	return nil
}

// migAbort thaws a frozen view after a failed transfer step and reports
// the original failure (the thaw's own error wins only if the thaw itself
// broke).
func (s *Simulator) migAbort(f *core.FrozenView, cause error) error {
	if terr := s.rt.ThawView(f); terr != nil {
		return fmt.Errorf("sim: thaw after failed migration: %v (cause: %w)", terr, cause)
	}
	return cause
}

// viewsEqual compares two span sets by canonical encoding (nil equals nil).
func viewsEqual(a, b *kview.View) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	ab, aerr := a.MarshalBinary()
	bb, berr := b.MarshalBinary()
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}
