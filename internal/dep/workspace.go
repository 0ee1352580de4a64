package dep

import (
	"slices"
	"sync"

	"pragformer/internal/cast"
)

// workspace is the scratch memory of one engine pass: the access
// list, the subscript and form slabs, the nest tables, the pair-local
// distance vector, the scalar table, the name tables (body-local names,
// unknown callees seen, inner headers by variable, iteration-varying names,
// scalar index) and the witness-anchoring walk's targets and positions all
// live here, so an analysis of any length allocates for what its result
// keeps and the symbol terms of its loop headers' affine forms. Workspaces
// are pooled; release clears every table and keeps it for the next analysis.
//
// Ownership rule: nothing reachable from an analysis points into a
// workspace. Reasons, Witnesses (sites and vectors), Private, Reductions,
// UnknownCalls and Converted are built fresh — but for the read-only Reasons
// every accepted analysis with nothing else to say shares — and so is the
// Header: its Affine bounds hold their symbol terms in slices of their own
// (nil for a bound without symbols), which are part of the result. The
// Analysis value itself lives where the caller put it: AnalyzeLoop allocates
// one, and a pooled s2s.Unit holds its own and hands out copies, whose
// slices stay valid after the unit is released and reused.
type workspace struct {
	ctx     collector
	ns      nestSpace
	scalars scalarTable
	arrays  []*access   // array accesses grouped by name, visit order within one
	forms   []nAffine   // subscript forms, carved per tested access
	targets []cast.Node // witness source and sink nodes, for cast.Positions
	pos     []cast.Pos  // where each target's text begins in the loop's print
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
	ws.targets = zero(ws.targets)
	ws.pos = zero(ws.pos)
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
