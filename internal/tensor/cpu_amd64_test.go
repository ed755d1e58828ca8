//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// gemmFeatures names the CPU features gemmSelect chose the GEMM variants
// by: the FMA kernels need AVX and FMA.
func gemmFeatures() string {
	return fmt.Sprintf("AVX %v, FMA %v, AVX-512 %v", cpuAVX, cpuFMA, cpuAVX512)
}

// checkCPUFeatures logs what cpuFeatures read and, on Linux, checks its
// AVX-512 bit against the avx512f flag of /proc/cpuinfo, which the kernel
// reports only when the CPU has AVX512F and the OS saves its state.
func checkCPUFeatures(t *testing.T) {
	t.Logf("CPUID: AVX %v, AVX2 %v, FMA %v, AVX-512 %v", cpuAVX, cpuAVX2, cpuFMA, cpuAVX512)
	if runtime.GOOS != "linux" {
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if has := slices.Contains(strings.Fields(flags), "avx512f"); has != cpuAVX512 {
			t.Errorf("cpuFeatures reports AVX-512 %v, /proc/cpuinfo's avx512f flag %v", cpuAVX512, has)
		}
		return
	}
	t.Skip("/proc/cpuinfo lists no flags")
}
