package nn

import "fmt"

// Replica support for data-parallel training. A replica is a structurally
// identical copy of a model whose parameter slices pair up one-to-one with
// the primary's (same order, same names, same shapes). The trainer shards a
// batch across replicas, then reduces gradients back into the primary with
// AccumGrads and re-broadcasts updated weights with CopyWeights.

// checkAligned panics unless dst and src are the same parameter list
// name-for-name and shape-for-shape; misaligned replicas are a programmer
// error.
func checkAligned(dst, src []*Param) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: replica param count mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		if dst[i].Name != src[i].Name {
			panic(fmt.Sprintf("nn: replica param %d is %q vs %q", i, dst[i].Name, src[i].Name))
		}
		if dst[i].W.Rows != src[i].W.Rows || dst[i].W.Cols != src[i].W.Cols {
			panic(fmt.Sprintf("nn: replica param %q shape mismatch %dx%d vs %dx%d",
				dst[i].Name, dst[i].W.Rows, dst[i].W.Cols, src[i].W.Rows, src[i].W.Cols))
		}
	}
}

// CopyWeights copies every weight matrix from src into dst (the broadcast
// half of an all-reduce step). Gradient accumulators are left untouched.
func CopyWeights(dst, src []*Param) {
	checkAligned(dst, src)
	for i := range dst {
		copy(dst[i].W.Data, src[i].W.Data)
	}
}

// AccumGrads adds every src gradient into the corresponding dst gradient.
// Reduction order is the slice order, which is fixed by the model's Params
// method — calling this once per replica in replica order therefore gives a
// deterministic (schedule-independent) gradient sum.
func AccumGrads(dst, src []*Param) {
	checkAligned(dst, src)
	for i := range dst {
		dst[i].Gradient().AddInPlace(src[i].Gradient())
	}
}
