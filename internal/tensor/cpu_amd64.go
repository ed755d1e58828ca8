//go:build amd64 && !purego

package tensor

// cpuAVX, cpuAVX2 and cpuFMA are read from CPUID once, when the package
// initializes, and are the only thing the choice between kernel variants
// depends on (gemmVariants, signedVariants, layerVariants, transKernels):
// the 256-bit kernels need some of these, and without them the operation
// runs its portable kernel. The SSE2 kernels of the elementwise loops need nothing: SSE2 is the
// amd64 baseline.
var cpuAVX, cpuAVX2, cpuFMA = cpuFeatures()

// cpuFeatures reports avx when CPUID.1:ECX has AVX and OSXSAVE and XCR0 bits
// 1-2 are set (the OS preserves XMM and YMM state), fma when CPUID.1:ECX.FMA
// is set as well (the test Go's math package makes before it takes its FMA
// path), and avx2 when CPUID.7.0:EBX.AVX2 is set as well as avx.
func cpuFeatures() (avx, avx2, fma bool)
