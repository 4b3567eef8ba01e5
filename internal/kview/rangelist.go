// Package kview represents kernel views: the per-application range lists
// K[app] = {([B,E],T)} of Section II, the similarity index of Equation (1),
// view configuration files, and union views used to model system-wide
// minimization.
package kview

import "sort"

// Range is one half-open address range [Start, End).
type Range struct {
	Start uint32 `json:"start"`
	End   uint32 `json:"end"`
}

// Size returns the range's byte size.
func (r Range) Size() uint32 { return r.End - r.Start }

// RangeList is a sorted, merged list of non-overlapping ranges within one
// address space (the base kernel, or one module's relative space).
type RangeList []Range

// Insert adds [start, end) to the list, merging adjacent and overlapping
// ranges, and returns the updated list.
func (l RangeList) Insert(start, end uint32) RangeList {
	if start >= end {
		return l
	}
	i := sort.Search(len(l), func(i int) bool { return l[i].Start > start })
	// Step back if the previous range touches or overlaps [start,end).
	if i > 0 && l[i-1].End >= start {
		i--
	}
	j := i
	for j < len(l) && l[j].Start <= end {
		if l[j].Start < start {
			start = l[j].Start
		}
		if l[j].End > end {
			end = l[j].End
		}
		j++
	}
	if i == j {
		// Pure insertion.
		l = append(l, Range{})
		copy(l[i+1:], l[i:])
		l[i] = Range{start, end}
		return l
	}
	l[i] = Range{start, end}
	l = append(l[:i+1], l[j:]...)
	return l
}

// covers reports whether one range of the list contains all of
// [start, end): the first range ending at or after end is the only
// candidate.
func (l RangeList) covers(start, end uint32) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i].End >= end })
	return i < len(l) && l[i].Start <= start
}

// Contains reports whether addr lies in some range.
func (l RangeList) Contains(addr uint32) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i].End > addr })
	return i < len(l) && l[i].Start <= addr
}

// Size returns the total byte size, the paper's SIZE(K).
func (l RangeList) Size() uint64 {
	var n uint64
	for _, r := range l {
		n += uint64(r.Size())
	}
	return n
}

// Len returns the number of ranges, the paper's LEN(K).
func (l RangeList) Len() int { return len(l) }

// Intersect computes the overlapping ranges of two lists (the paper's
// K[app1] ∩ K[app2]); the result is again a range list.
func Intersect(a, b RangeList) RangeList {
	var out RangeList
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Start
		if b[j].Start > lo {
			lo = b[j].Start
		}
		hi := a[i].End
		if b[j].End < hi {
			hi = b[j].End
		}
		if lo < hi {
			out = append(out, Range{lo, hi})
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// Union merges two lists.
func Union(a, b RangeList) RangeList {
	out := make(RangeList, len(a))
	copy(out, a)
	for _, r := range b {
		out = out.Insert(r.Start, r.End)
	}
	return out
}

// Clone returns a copy of the list.
func (l RangeList) Clone() RangeList {
	out := make(RangeList, len(l))
	copy(out, l)
	return out
}
