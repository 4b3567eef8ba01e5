package kview

import (
	"encoding/json"
	"fmt"
	"sort"
)

// BaseKernel is the space name for base kernel code (absolute addresses).
// Module spaces are named by module and hold module-relative addresses,
// because "a module's loading addresses may change at runtime" (Section II).
const BaseKernel = ""

// View is one application's kernel view K[app]: per-space range lists.
type View struct {
	// App is the profiled application's name.
	App string `json:"app"`
	// Spaces maps a space name (BaseKernel or a module name) to its
	// profiled ranges.
	Spaces map[string]RangeList `json:"spaces"`
}

// NewView creates an empty view for app.
func NewView(app string) *View {
	return &View{App: app, Spaces: make(map[string]RangeList)}
}

// Insert records [start, end) in the named space. A range the space
// already covers changes nothing, so it returns before the merge and the
// map store: the profiler's common case, since nearly every executed
// block repeats code the view already holds.
func (v *View) Insert(space string, start, end uint32) {
	l := v.Spaces[space]
	if l.covers(start, end) {
		return
	}
	v.Spaces[space] = l.Insert(start, end)
}

// Ranges returns the range list of a space (nil if absent).
func (v *View) Ranges(space string) RangeList { return v.Spaces[space] }

// Size returns the total profiled code size across spaces, the paper's
// SIZE(K[app]).
func (v *View) Size() uint64 {
	var n uint64
	for _, l := range v.Spaces {
		n += l.Size()
	}
	return n
}

// Len returns the total number of ranges across spaces.
func (v *View) Len() int {
	n := 0
	for _, l := range v.Spaces {
		n += l.Len()
	}
	return n
}

// SpaceNames returns the view's space names, sorted, base kernel first.
func (v *View) SpaceNames() []string {
	names := make([]string, 0, len(v.Spaces))
	for s := range v.Spaces {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}

// IntersectViews computes the space-wise intersection of two views.
func IntersectViews(a, b *View) *View {
	out := NewView(a.App + "∩" + b.App)
	for space, la := range a.Spaces {
		lb, ok := b.Spaces[space]
		if !ok {
			continue
		}
		if x := Intersect(la, lb); len(x) > 0 {
			out.Spaces[space] = x
		}
	}
	return out
}

// OverlapSize returns SIZE(K[a] ∩ K[b]).
func OverlapSize(a, b *View) uint64 { return IntersectViews(a, b).Size() }

// Similarity computes the similarity index S of Equation (1):
// SIZE(K1 ∩ K2) / MAX(SIZE(K1), SIZE(K2)).
func Similarity(a, b *View) float64 {
	max := a.Size()
	if s := b.Size(); s > max {
		max = s
	}
	if max == 0 {
		return 0
	}
	return float64(OverlapSize(a, b)) / float64(max)
}

// UnionViews merges many views into one — the "union kernel view"
// representing system-wide minimization in the paper's security evaluation.
func UnionViews(name string, views ...*View) *View {
	out := NewView(name)
	for _, v := range views {
		for space, l := range v.Spaces {
			out.Spaces[space] = Union(out.Spaces[space], l)
		}
	}
	return out
}

// configJSON is the serialized form: stable, explicit segment records.
type configJSON struct {
	App      string        `json:"app"`
	Segments []segmentJSON `json:"segments"`
}

type segmentJSON struct {
	Module string `json:"module,omitempty"`
	Start  uint32 `json:"start"`
	End    uint32 `json:"end"`
}

// Marshal serializes the view as a kernel view configuration file.
func (v *View) Marshal() ([]byte, error) {
	cfg := configJSON{App: v.App}
	for _, space := range v.SpaceNames() {
		for _, r := range v.Spaces[space] {
			cfg.Segments = append(cfg.Segments, segmentJSON{Module: space, Start: r.Start, End: r.End})
		}
	}
	return json.MarshalIndent(cfg, "", "  ")
}

// Unmarshal parses a kernel view configuration file.
func Unmarshal(data []byte) (*View, error) {
	var cfg configJSON
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("kview: parse config: %w", err)
	}
	v := NewView(cfg.App)
	for _, s := range cfg.Segments {
		if s.Start >= s.End {
			return nil, fmt.Errorf("kview: bad segment [%#x,%#x)", s.Start, s.End)
		}
		v.Insert(s.Module, s.Start, s.End)
	}
	return v, nil
}
