//go:build amd64 && !purego

package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestTransKernelsRun: on a CPU with AVX2 and FMA each kernel's start-up
// probe agrees with math.Exp and the kernel runs — the 4-lane one, and the
// 8-lane one with AVX512F as well. A kernel edit that moves a probed bit
// would otherwise switch it off, and the oracle would test the scalar loop,
// or the narrower kernel, in its place.
func TestTransKernelsRun(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG hides CPU features from the math package")
	}
	want := []string{transPortable.name}
	for _, v := range []transVariant{transAVX2, transAVX512} {
		if !cpuAVX2 || !cpuFMA || v.lanes == 8 && !cpuAVX512 {
			continue
		}
		if !expAgrees(v) {
			t.Errorf("%s: the probe disagrees with math.Exp", v.name)
		}
		want = append(want, v.name)
	}
	var got []string
	for _, v := range transVariants() {
		got = append(got, v.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("variants %v with AVX2 %v, FMA %v, AVX-512 %v; want %v", got, cpuAVX2, cpuFMA, cpuAVX512, want)
	}
}
