//go:build amd64 && !purego

package tensor

import (
	"os"
	"strings"
	"testing"
)

// TestTransKernelsRun: on a CPU with AVX2 and FMA the start-up probe agrees
// with math.Exp and the kernels run. A kernel edit that moves a probed bit
// would otherwise switch them off, and the oracle would test the scalar loop
// against itself.
func TestTransKernelsRun(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG hides CPU features from the math package")
	}
	if transKernels != (cpuAVX2 && cpuFMA) {
		t.Fatalf("kernels on = %v with AVX2 %v and FMA %v: the probe disagrees with math.Exp", transKernels, cpuAVX2, cpuFMA)
	}
}
