package dep

import (
	"slices"
	"sync"
)

// workspace is the scratch memory of one engine pass: the access
// list, the subscript and form slabs, the nest tables, the pair-local
// distance vector, the scalar table and the name tables (body-local names,
// unknown callees seen, inner headers by variable, iteration-varying names,
// scalar index) all live here, so an analysis of any length allocates for
// its result, the symbol terms of its loop headers' affine forms and the
// print that anchors its witnesses. Workspaces are pooled; release clears
// every table and keeps it for the next analysis.
//
// Ownership rule: nothing reachable from a returned *Analysis points into a
// workspace. Reasons, Witnesses (sites and vectors), Private, Reductions,
// UnknownCalls and Converted are built fresh — but for the read-only Reasons
// every accepted analysis with nothing else to say shares — and so is the
// Header: its
// Affine bounds hold their symbol terms in slices of their own (nil for a
// bound without symbols), which are part of the result.
type workspace struct {
	ctx     collector
	ns      nestSpace
	scalars scalarTable
	arrays  []*access // array accesses grouped by name, visit order within one
	forms   []nAffine // subscript forms, carved per tested access
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// release zeroes what the analysis wrote and pools the workspace.
func (ws *workspace) release() {
	ws.reset()
	workspaces.Put(ws)
}

// reset leaves every slab and table empty and clean. A pooled workspace
// must pin nothing of the parse it last served: every slot that can hold an
// AST pointer or a string is cleared, not just truncated, and every table
// is cleared, so no name of one loop is seen by the next.
func (ws *workspace) reset() {
	ws.ctx.reset()
	ws.ns.reset()
	ws.scalars.reset()
	ws.arrays = zero(ws.arrays)
	ws.forms = zero(ws.forms)
}

// zero clears the used part of a slab and empties it. Slots past len are
// zero at all times (carve hands them out on that promise), so this leaves
// the whole capacity clean.
func zero[T any](slab []T) []T {
	clear(slab)
	return slab[:0]
}

// carve extends the slab by n zero slots and returns them, capped so that an
// append through the result cannot run into the next carve. A slab that has
// to grow moves; earlier carves keep the old array, which stays valid and is
// garbage once the analysis returns.
func carve[T any](slab *[]T, n int) []T {
	old := len(*slab)
	*slab = slices.Grow(*slab, n)[:old+n]
	return (*slab)[old : old+n : old+n]
}

// compact ends one subscript's evaluation on a slab: keep, the part of the
// last form standing, moves down to mark and the intermediates' slots are
// zeroed and given back.
func compact[T any](slab *[]T, mark int, keep []T) []T {
	end := mark + copy((*slab)[mark:], keep)
	clear((*slab)[end:])
	*slab = (*slab)[:end]
	return (*slab)[mark:end:end]
}
