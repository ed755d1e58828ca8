//go:build amd64 && !purego

package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestTransKernelsRun: on a CPU with AVX2 and FMA the 256-bit kernels run,
// and the 512-bit ones with AVX512F as well, Sigmoid's and Tanh's always;
// ExpShift's only while math.Exp is on its FMA path, which GODEBUG's
// cpu.fma=off, cpu.avx=off and cpu.all=off take it off. A kernel edit that
// moved a probed bit would otherwise switch ExpShift's kernel off, and the
// oracle would test the scalar loop in its place. It logs which variant
// runs each function.
func TestTransKernelsRun(t *testing.T) {
	godebug := os.Getenv("GODEBUG")
	expOff := strings.Contains(godebug, "cpu.fma=off") || strings.Contains(godebug, "cpu.avx=off") ||
		strings.Contains(godebug, "cpu.all=off")
	want := []string{transPortable.name}
	for _, v := range []transVariant{transAVX2, transAVX512} {
		if !cpuAVX2 || !cpuFMA || v.name == transAVX512.name && !cpuAVX512 {
			continue
		}
		if agrees := expAgrees(v); agrees == expOff {
			t.Errorf("%s: the ExpShift probe agrees with math.Exp: %v, with GODEBUG=%q", v.name, agrees, godebug)
		}
		want = append(want, v.name)
	}
	var got []string
	for _, v := range transVariants() {
		got = append(got, v.name)
		if v.lanes > 0 && (v.sigmoid == nil || v.tanh == nil || (v.expShift == nil) != expOff || (v.expLanes == 0) != expOff) {
			t.Errorf("%s: kernels Sigmoid %v, Tanh %v, ExpShift %v with GODEBUG=%q", v.name,
				v.sigmoid != nil, v.tanh != nil, v.expShift != nil, godebug)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("variants %v with AVX2 %v, FMA %v, AVX-512 %v; want %v", got, cpuAVX2, cpuFMA, cpuAVX512, want)
	}
	t.Logf("GODEBUG=%q: %s", godebug, transKernelsInUse())
}
