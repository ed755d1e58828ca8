//go:build amd64 && !purego

package tensor

// cpuAVX and cpuAVX2 are read from CPUID once, when the package initializes,
// and are the only thing the choice between kernel variants depends on
// (gemmVariants, signedVariants): SSE2 is the amd64 baseline, the 256-bit
// kernels need one of these.
var cpuAVX, cpuAVX2 = cpuFeatures()

// cpuFeatures reports avx when CPUID.1:ECX has AVX and OSXSAVE and XCR0 bits
// 1-2 are set (the OS preserves XMM and YMM state), and avx2 when
// CPUID.7.0:EBX.AVX2 is set as well.
func cpuFeatures() (avx, avx2 bool)
