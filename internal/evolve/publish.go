package evolve

import (
	"fmt"
	"sync"

	"facechange/internal/core"
	"facechange/internal/kview"
)

// PublishToRuntime returns a PublishFunc that hot-plugs each generation
// straight into a live runtime: LoadView registers the new view under the
// application's name (context switches land on it immediately), and the
// previous generation this publisher loaded is retired best-effort — a
// concurrent administrator or simulator may already have unloaded it, and
// a leftover old view is waste, not a safety problem.
func PublishToRuntime(rt *core.Runtime) PublishFunc {
	var mu sync.Mutex
	prev := make(map[string]int)
	return func(app string, gen uint64, v *kview.View) error {
		idx, err := rt.LoadView(v)
		if err != nil {
			return fmt.Errorf("evolve: publish %s gen %d: %w", app, gen, err)
		}
		mu.Lock()
		old, had := prev[app]
		prev[app] = idx
		mu.Unlock()
		if had {
			rt.UnloadView(old) // best-effort retirement (see above)
		}
		return nil
	}
}
