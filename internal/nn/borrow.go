package nn

import "pragformer/internal/tensor"

// Borrows is one training step's borrow list. The training Forward and
// Backward functions take every per-example matrix they make — outputs,
// caches, backward temporaries — from the tensor pool through it, and the
// step's owner calls Release once the example's backward has returned, so
// a step keeps nothing it borrowed and steady-state training allocates no
// activation storage. Each model owns one list, beside its dropout RNG, so
// replicas training concurrently never share one.
//
// Only what a Borrow method made is recorded. Views (rowsView, the per-head
// attention matrices), identity dropout's pass-through and the caller's own
// inputs are not, so Release returns each borrowed matrix exactly once.
type Borrows struct{ ms []*tensor.Matrix }

// Borrow returns a zeroed rows×cols matrix from the pool, recorded for
// Release.
func (b *Borrows) Borrow(rows, cols int) *tensor.Matrix {
	return b.keep(tensor.GetMatrix(rows, cols))
}

// BorrowDirty is Borrow without the clear, for a matrix every element of
// which is written before it is read.
func (b *Borrows) BorrowDirty(rows, cols int) *tensor.Matrix {
	return b.keep(tensor.GetMatrixDirty(rows, cols))
}

// BorrowClone returns a borrowed copy of m.
func (b *Borrows) BorrowClone(m *tensor.Matrix) *tensor.Matrix {
	c := b.BorrowDirty(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

func (b *Borrows) keep(m *tensor.Matrix) *tensor.Matrix {
	b.ms = append(b.ms, m)
	return m
}

// Release returns every borrowed matrix to the pool. Any use of one
// afterwards panics (tensor.PutMatrix truncates it). The entries are
// cleared, not only truncated, so a model that trained and now serves
// keeps no pooled matrix reachable.
func (b *Borrows) Release() {
	for _, m := range b.ms {
		tensor.PutMatrix(m)
	}
	clear(b.ms)
	b.ms = b.ms[:0]
}
