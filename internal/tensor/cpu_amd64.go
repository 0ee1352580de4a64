//go:build amd64 && !purego

package tensor

import "os"

// Shared CPU feature probe for the SIMD kernel backends. Both the int8
// kernels (int8_amd64.go) and the float64 kernels (float_amd64.go) gate on
// the same AVX2 availability check, hoisted here so the two paths can never
// disagree about what the host supports, and so one escape hatch covers
// both: setting PRAGFORMER_NOSIMD (to anything non-empty) at process start
// keeps every asm kernel uninstalled, which pins the whole stack to the
// portable scalar paths — the debugging lever for isolating a suspected
// kernel bug from a modeling bug.

// cpuid executes CPUID with the given leaf/subleaf (cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (OS-enabled register state).
func xgetbv() (eax, edx uint32)

// avx2Available is the raw hardware probe result, fixed at init.
var avx2Available = hasAVX2()

// simdDisabledByEnv records the PRAGFORMER_NOSIMD escape hatch, read once
// at init so all kernel installs see the same answer.
var simdDisabledByEnv = os.Getenv("PRAGFORMER_NOSIMD") != ""

// useSIMD reports whether asm kernels should be installed: hardware support
// present and not vetoed by PRAGFORMER_NOSIMD.
func useSIMD() bool { return avx2Available && !simdDisabledByEnv }

// hasAVX2 reports CPU and OS support for AVX2 (CPUID feature bit plus
// OS-saved YMM state via XGETBV — a hypervisor can expose the former
// without the latter).
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

// SIMDAvailable reports whether AVX2 asm kernels exist for this CPU and
// were not disabled by PRAGFORMER_NOSIMD at startup.
func SIMDAvailable() bool { return useSIMD() }

// SetSIMD installs (true) or removes (false) the asm kernels at runtime,
// returning whether SIMD kernels are active afterwards. Enabling is a no-op
// when the hardware lacks AVX2 or PRAGFORMER_NOSIMD was set. It swaps the
// kernel function pointers non-atomically, so it must not race in-flight
// matmuls — it exists for the tests that compare the asm kernels with the
// scalar ones, which toggle it with nothing else running.
func SetSIMD(enabled bool) bool {
	if enabled && !useSIMD() {
		return false
	}
	installSIMD(enabled)
	return enabled
}

// installSIMD wires or unwires every asm kernel in one place.
func installSIMD(enabled bool) {
	if enabled {
		int8RowKernel = int8DotRows1AVX2
		f64GemmRowKernel = f64GemmRowAVX2
		f64DotBT4Kernel = f64DotBT4AVX2
		f64AbsMaxKernel = f64AbsMaxAVX2
		f64QuantRowKernel = f64QuantRowAVX2
		f64NormScaleKernel = f64NormScaleAVX2
		f64AdamWKernel = f64AdamWAVX2
		return
	}
	int8RowKernel = nil
	f64GemmRowKernel = nil
	f64DotBT4Kernel = nil
	f64AbsMaxKernel = nil
	f64QuantRowKernel = nil
	f64NormScaleKernel = nil
	f64AdamWKernel = nil
}

func init() {
	if useSIMD() {
		installSIMD(true)
	}
}
