//go:build amd64 && !purego

#include "textflag.h"

// Float64 AVX2 FMA kernels. Both are bit-identical to the portable
// fallbacks in float.go: VFMADD231PD lanes hold distinct output elements
// (axpy kernel) or the four documented dot partials (dot kernel), so no
// floating-point reassociation happens relative to the scalar code.
//
// Register discipline: R14 (goroutine pointer) and X15/Y15 (ABI zero
// register) are never touched; Y13 holds our +0 constant for ReLU.

// func f64GemmRowAVX2(dst, a *float64, strideA int, b *float64, strideB int, bias *float64, k, n, flags int)
//
// dst[j] = epilogue(bias_j + Σ_{k'<k} a[k'·strideA]·b[k'·strideB+j]) for
// j < n. bias may be nil (seed 0); flags bit 0 applies max(acc, +0) before
// the store. Output columns are tiled 16/8/4 wide (4/2/1 ymm accumulators)
// with a scalar tail; the k loop broadcasts one a element per iteration and
// FMAs a row of b into the accumulators, so every output element is one
// ascending-k fused chain.
TEXT ·f64GemmRowAVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ strideA+16(FP), R8
	SHLQ $3, R8                 // element stride → bytes
	MOVQ b+24(FP), BX
	MOVQ strideB+32(FP), R9
	SHLQ $3, R9
	MOVQ bias+40(FP), R10
	MOVQ k+48(FP), CX
	MOVQ n+56(FP), DX
	MOVQ flags+64(FP), R11

	VXORPD Y13, Y13, Y13        // +0 for the ReLU epilogue

tile16:
	CMPQ DX, $16
	JLT  tile8

	// Seed 4 accumulators from bias (or zero).
	TESTQ R10, R10
	JEQ   t16zero
	VMOVUPD 0(R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD 64(R10), Y6
	VMOVUPD 96(R10), Y7
	ADDQ    $128, R10
	JMP     t16k

t16zero:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

t16k:
	MOVQ  SI, R12               // a cursor
	MOVQ  BX, R13               // b row cursor (this column tile)
	MOVQ  CX, AX
	TESTQ AX, AX
	JEQ   t16post

t16loop:
	VBROADCASTSD (R12), Y0
	VFMADD231PD  0(R13), Y0, Y4
	VFMADD231PD  32(R13), Y0, Y5
	VFMADD231PD  64(R13), Y0, Y6
	VFMADD231PD  96(R13), Y0, Y7
	ADDQ         R8, R12
	ADDQ         R9, R13
	DECQ         AX
	JNE          t16loop

t16post:
	TESTQ  $1, R11
	JEQ    t16store
	VMAXPD Y13, Y4, Y4          // max(acc, +0): -0 and NaN → +0
	VMAXPD Y13, Y5, Y5
	VMAXPD Y13, Y6, Y6
	VMAXPD Y13, Y7, Y7

t16store:
	VMOVUPD Y4, 0(DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $16, DX
	JMP     tile16

tile8:
	CMPQ DX, $8
	JLT  tile4

	TESTQ R10, R10
	JEQ   t8zero
	VMOVUPD 0(R10), Y4
	VMOVUPD 32(R10), Y5
	ADDQ    $64, R10
	JMP     t8k

t8zero:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5

t8k:
	MOVQ  SI, R12
	MOVQ  BX, R13
	MOVQ  CX, AX
	TESTQ AX, AX
	JEQ   t8post

t8loop:
	VBROADCASTSD (R12), Y0
	VFMADD231PD  0(R13), Y0, Y4
	VFMADD231PD  32(R13), Y0, Y5
	ADDQ         R8, R12
	ADDQ         R9, R13
	DECQ         AX
	JNE          t8loop

t8post:
	TESTQ  $1, R11
	JEQ    t8store
	VMAXPD Y13, Y4, Y4
	VMAXPD Y13, Y5, Y5

t8store:
	VMOVUPD Y4, 0(DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $8, DX

tile4:
	CMPQ DX, $4
	JLT  tail

	TESTQ R10, R10
	JEQ   t4zero
	VMOVUPD 0(R10), Y4
	ADDQ    $32, R10
	JMP     t4k

t4zero:
	VXORPD Y4, Y4, Y4

t4k:
	MOVQ  SI, R12
	MOVQ  BX, R13
	MOVQ  CX, AX
	TESTQ AX, AX
	JEQ   t4post

t4loop:
	VBROADCASTSD (R12), Y0
	VFMADD231PD  0(R13), Y0, Y4
	ADDQ         R8, R12
	ADDQ         R9, R13
	DECQ         AX
	JNE          t4loop

t4post:
	TESTQ  $1, R11
	JEQ    t4store
	VMAXPD Y13, Y4, Y4

t4store:
	VMOVUPD Y4, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $4, DX

tail:
	TESTQ DX, DX
	JEQ   done

tailloop:
	TESTQ R10, R10
	JEQ   tzero
	VMOVSD (R10), X4
	ADDQ   $8, R10
	JMP    tk

tzero:
	VXORPD X4, X4, X4

tk:
	MOVQ  SI, R12
	MOVQ  BX, R13
	MOVQ  CX, AX
	TESTQ AX, AX
	JEQ   tpost

tkloop:
	VMOVSD      (R12), X0
	VFMADD231SD (R13), X0, X4
	ADDQ        R8, R12
	ADDQ        R9, R13
	DECQ        AX
	JNE         tkloop

tpost:
	TESTQ  $1, R11
	JEQ    tstore
	VMAXSD X13, X4, X4

tstore:
	VMOVSD X4, (DI)
	ADDQ   $8, DI
	ADDQ   $8, BX
	DECQ   DX
	JNE    tailloop

done:
	VZEROUPPER
	RET

// func f64DotBT4AVX2(a, b *float64, strideB, k int, out *float64)
//
// out[c] = dot(a[0:k], b[c·strideB : c·strideB+k]) for c in 0..3, computed
// as four FMA lane partials l_c = Σ_{k'≡c (mod 4)} over the 4-aligned
// prefix, reduced (l0+l2)+(l1+l3) via VEXTRACTF128+VADDPD+VHADDPD, then a
// sequential scalar-FMA tail — exactly the tree dotLanes (float.go) builds.
TEXT ·f64DotBT4AVX2(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), BX
	MOVQ strideB+16(FP), R9
	SHLQ $3, R9
	MOVQ k+24(FP), CX
	MOVQ out+32(FP), DI

	// Channel row pointers b0..b3 = b + {0,1,2,3}·strideB.
	MOVQ BX, R10
	LEAQ (BX)(R9*1), R11
	LEAQ (BX)(R9*2), R12
	LEAQ (R11)(R9*2), R13

	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, DX
	ANDQ $-4, DX                // 4-aligned prefix length
	XORQ AX, AX

loop4:
	CMPQ AX, DX
	JGE  reduce
	VMOVUPD     (SI)(AX*8), Y0
	VFMADD231PD (R10)(AX*8), Y0, Y4
	VFMADD231PD (R11)(AX*8), Y0, Y5
	VFMADD231PD (R12)(AX*8), Y0, Y6
	VFMADD231PD (R13)(AX*8), Y0, Y7
	ADDQ        $4, AX
	JMP         loop4

reduce:
	// Lane tree (l0+l2)+(l1+l3) into the low double of each accumulator.
	VEXTRACTF128 $1, Y4, X0
	VADDPD       X0, X4, X4
	VHADDPD      X4, X4, X4
	VEXTRACTF128 $1, Y5, X0
	VADDPD       X0, X5, X5
	VHADDPD      X5, X5, X5
	VEXTRACTF128 $1, Y6, X0
	VADDPD       X0, X6, X6
	VHADDPD      X6, X6, X6
	VEXTRACTF128 $1, Y7, X0
	VADDPD       X0, X7, X7
	VHADDPD      X7, X7, X7

tail:
	CMPQ AX, CX
	JGE  store
	VMOVSD      (SI)(AX*8), X0
	VFMADD231SD (R10)(AX*8), X0, X4
	VFMADD231SD (R11)(AX*8), X0, X5
	VFMADD231SD (R12)(AX*8), X0, X6
	VFMADD231SD (R13)(AX*8), X0, X7
	INCQ        AX
	JMP         tail

store:
	VMOVSD X4, 0(DI)
	VMOVSD X5, 8(DI)
	VMOVSD X6, 16(DI)
	VMOVSD X7, 24(DI)
	VZEROUPPER
	RET

// func f64NormScaleAVX2(dst, src *float64, mean, inv float64, gamma, beta *float64, n4 int)
//
// Layer-norm scale-shift: dst[j] = ((src[j]-mean)·inv)·gamma[j] + beta[j]
// for j < n4, a nonzero multiple of 4. Each lane performs the scalar loop's
// exact operation sequence (VSUBPD, VMULPD, VMULPD, VADDPD — no FMA
// contraction, matching the two-rounding scalar expression), and lanes are
// distinct output elements, so the kernel is bit-identical to the fallback.
TEXT ·f64NormScaleAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSD mean+16(FP), Y10
	VBROADCASTSD inv+24(FP), Y11
	MOVQ         gamma+32(FP), R9
	MOVQ         beta+40(FP), R10
	MOVQ         n4+48(FP), CX
	XORQ         AX, AX

normloop:
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  Y10, Y0, Y0     // src[j] − mean
	VMULPD  Y11, Y0, Y0     // · inv
	VMULPD  (R9)(AX*8), Y0, Y0  // · gamma[j]
	VADDPD  (R10)(AX*8), Y0, Y0 // + beta[j]
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     normloop

	VZEROUPPER
	RET

// func f64AdamWAVX2(w, grad, m, v *float64, n4 int, decay bool, s AdamWStep)
//
// One AdamW step over j < n4, a nonzero multiple of 4. Each lane performs
// the scalar AdamWUpdate loop's exact operation sequence — every multiply,
// add, divide and square root rounded on its own (VMULPD, VADDPD, VSUBPD,
// VDIVPD, VSQRTPD, never an FMA) — and lanes are distinct elements, so the
// kernel is bit-identical to the fallback. The eleven step constants live
// in Y4–Y14; Y0–Y3 carry one 4-element chunk. The decay branch depends on
// the call alone, so it is always predicted.
TEXT ·f64AdamWAVX2(SB), NOSPLIT, $0-120
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n4+32(FP), CX
	MOVBQZX      decay+40(FP), DX
	VBROADCASTSD s_Inv+48(FP), Y4
	VBROADCASTSD s_Scale+56(FP), Y5
	VBROADCASTSD s_Beta1+64(FP), Y6
	VBROADCASTSD s_Beta2+72(FP), Y8
	VBROADCASTSD s_BC1+80(FP), Y10
	VBROADCASTSD s_BC2+88(FP), Y11
	VBROADCASTSD s_Eps+96(FP), Y12
	VBROADCASTSD s_WeightDecay+104(FP), Y13
	VBROADCASTSD s_LR+112(FP), Y14
	MOVQ         $0x3FF0000000000000, AX // 1.0
	MOVQ         AX, X0
	VBROADCASTSD X0, Y0
	VSUBPD       Y6, Y0, Y7 // 1 − Beta1
	VSUBPD       Y8, Y0, Y9 // 1 − Beta2
	XORQ         AX, AX

adamloop:
	VMULPD  (SI)(AX*8), Y4, Y0 // g·Inv
	VMULPD  Y5, Y0, Y0         // ·Scale
	VMULPD  (R8)(AX*8), Y6, Y1 // Beta1·m
	VMULPD  Y7, Y0, Y2         // (1−Beta1)·g
	VADDPD  Y2, Y1, Y1         // m
	VMOVUPD Y1, (R8)(AX*8)
	VMULPD  Y9, Y0, Y2         // (1−Beta2)·g
	VMULPD  Y0, Y2, Y2         // ·g
	VMULPD  (R9)(AX*8), Y8, Y3 // Beta2·v
	VADDPD  Y2, Y3, Y2         // v
	VMOVUPD Y2, (R9)(AX*8)
	VDIVPD  Y10, Y1, Y1        // m/BC1
	VDIVPD  Y11, Y2, Y2        // v/BC2
	VSQRTPD Y2, Y2
	VADDPD  Y12, Y2, Y2        // √· + Eps
	VDIVPD  Y2, Y1, Y1         // update
	TESTQ   DX, DX
	JZ      adamstep
	VMULPD  (DI)(AX*8), Y13, Y2 // WeightDecay·w
	VADDPD  Y2, Y1, Y1

adamstep:
	VMULPD  Y14, Y1, Y1        // LR·update
	VMOVUPD (DI)(AX*8), Y3
	VSUBPD  Y1, Y3, Y3         // w − LR·update
	VMOVUPD Y3, (DI)(AX*8)
	VXORPD  Y0, Y0, Y0
	VMOVUPD Y0, (SI)(AX*8)     // g ← 0
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     adamloop

	VZEROUPPER
	RET
