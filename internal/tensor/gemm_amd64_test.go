//go:build amd64 && !purego

package tensor

import (
	"slices"
	"testing"
)

// The GEMM variant is a function of three CPU features alone. The FMA
// kernels need AVX and FMA; the 512-bit variant runs the 256-bit kernels on
// a ragged last panel, so it needs both as well as AVX-512. A CPU without
// FMA runs the portable reference.
func TestGemmSelect(t *testing.T) {
	cases := []struct {
		avx, fma, avx512 bool
		want             []string
	}{
		{false, false, false, []string{"portable"}},
		{true, false, false, []string{"portable"}},
		{false, true, false, []string{"portable"}},
		{true, true, false, []string{"portable", "avx"}},
		{true, false, true, []string{"portable"}},
		{false, false, true, []string{"portable"}},
		{false, true, true, []string{"portable"}},
		{true, true, true, []string{"portable", "avx", "avx512"}},
	}
	for _, c := range cases {
		var got []string
		for _, v := range gemmSelect(c.avx, c.fma, c.avx512) {
			got = append(got, v.name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("AVX %v, FMA %v, AVX-512 %v: variants %q, want %q", c.avx, c.fma, c.avx512, got, c.want)
		}
	}
}
