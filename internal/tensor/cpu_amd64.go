//go:build amd64 && !purego

package tensor

// cpuAVX, cpuAVX2, cpuFMA and cpuAVX512 are read from CPUID once, when the
// package initializes, and are the only thing the choice between kernel
// variants depends on (gemmVariants, signedVariants, layerVariants,
// transVariants, finiteVariants): the 256-bit kernels need some of the first
// three, the 512-bit ones cpuAVX512 as well, and without them the operation
// runs a narrower kernel or its portable one. There is no option: a CPU
// without AVX-512 runs the kernels it ran before the 512-bit ones existed.
// The SSE2 kernels of the elementwise loops need nothing: SSE2 is the amd64
// baseline.
var cpuAVX, cpuAVX2, cpuFMA, cpuAVX512 = cpuFeatures()

// cpuFeatures reports avx when CPUID.1:ECX has AVX and OSXSAVE and XCR0 bits
// 1-2 are set (the OS preserves XMM and YMM state), fma when CPUID.1:ECX.FMA
// is set as well (the test Go's math package makes before it takes its FMA
// path), avx2 when CPUID.7.0:EBX.AVX2 is set as well as avx, and avx512 when
// CPUID.7.0:EBX.AVX512F is set as well as avx and XCR0 bits 5-7 are set too
// (the OS preserves the opmask registers and the upper halves of ZMM0-15 and
// ZMM16-31).
func cpuFeatures() (avx, avx2, fma, avx512 bool)
