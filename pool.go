package facechange

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"facechange/internal/apps"
	"facechange/internal/kview"
)

// Pool runs profiling sessions concurrently on a bounded set of workers.
// Each session boots its own QEMU-environment guest (an independent
// kernel.Kernel), so sessions share no state and the paper's per-
// application profiling is embarrassingly parallel. A session's guest
// RAM goes back to a process-wide free list when it ends, so a pool
// allocates about one guest's RAM per worker however many sessions it
// runs. Results and failures are always reported in the caller's input
// order, so a pool run is deterministic regardless of worker scheduling.
type Pool struct {
	workers int
}

// PoolConfig configures a profiling pool.
type PoolConfig struct {
	// Workers bounds concurrent sessions (default GOMAXPROCS).
	Workers int
}

// NewPool creates a profiling pool.
func NewPool(cfg PoolConfig) *Pool {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: w}
}

// ProfileError is one failed profiling session.
type ProfileError struct {
	App  string
	Seed int64
	Err  error
}

func (e *ProfileError) Error() string {
	return fmt.Sprintf("profile %s (seed %d): %v", e.App, e.Seed, e.Err)
}

// Unwrap exposes the underlying session error to errors.Is/As.
func (e *ProfileError) Unwrap() error { return e.Err }

// ProfileErrors aggregates every failed session of a pool run, in input
// order. A run that partially fails still returns the successful views;
// the caller decides whether partial results are usable.
type ProfileErrors []*ProfileError

func (es ProfileErrors) Error() string {
	if len(es) == 1 {
		return es[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d profiling sessions failed:", len(es))
	for _, e := range es {
		b.WriteString("\n\t")
		b.WriteString(e.Error())
	}
	return b.String()
}

// Unwrap exposes the individual session errors to errors.Is/As.
func (es ProfileErrors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// profileJob is one session to run: an (app, config) pair with its slot in
// the caller's input order.
type profileJob struct {
	idx int
	app apps.App
	cfg ProfileConfig
}

// run executes the jobs on the pool's workers. views[i] holds job i's view
// on success; failures come back as a ProfileErrors in input order.
// Workers write only to their job's slot, so the slices need no locking.
func (p *Pool) run(jobs []profileJob) ([]*kview.View, ProfileErrors) {
	views := make([]*kview.View, len(jobs))
	fails := make([]*ProfileError, len(jobs))
	workers := p.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	ch := make(chan profileJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				v, err := Profile(j.app, j.cfg)
				if err != nil {
					fails[j.idx] = &ProfileError{App: j.app.Name, Seed: j.cfg.Seed, Err: err}
					continue
				}
				views[j.idx] = v
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	var errs ProfileErrors
	for _, e := range fails {
		if e != nil {
			errs = append(errs, e)
		}
	}
	return views, errs
}

// ProfileAll profiles every application in an independent session and
// returns the views keyed by name. Sessions run concurrently on the
// pool's workers. On failure the error is a ProfileErrors aggregating
// every failed app (not just the first), and the returned map still holds
// the views that did profile.
func (p *Pool) ProfileAll(list []apps.App, cfg ProfileConfig) (map[string]*kview.View, error) {
	cfg.defaults()
	jobs := make([]profileJob, len(list))
	for i, a := range list {
		jobs[i] = profileJob{idx: i, app: a, cfg: cfg}
	}
	views, errs := p.run(jobs)
	out := make(map[string]*kview.View, len(list))
	for i, v := range views {
		if v != nil {
			out[list[i].Name] = v
		}
	}
	if len(errs) > 0 {
		return out, errs
	}
	return out, nil
}

// ProfileMerged profiles an application over several independent sessions
// (distinct workload seeds) concurrently and merges the resulting views —
// the paper's answer to the path-coverage problem: "it is difficult to
// ensure that all code paths through an application are executed during
// profiling" (Section III-A2). More sessions mean fewer benign recoveries
// at runtime.
// The merge unions the views in seed order; range-list union is
// order-independent, so the merged view is identical to a serial run's.
func (p *Pool) ProfileMerged(app apps.App, cfg ProfileConfig, seeds ...int64) (*kview.View, error) {
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	cfg.defaults()
	jobs := make([]profileJob, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		jobs[i] = profileJob{idx: i, app: app, cfg: c}
	}
	views, errs := p.run(jobs)
	if len(errs) > 0 {
		return nil, errs
	}
	merged := kview.UnionViews(app.Name, views...)
	merged.App = app.Name
	return merged, nil
}
