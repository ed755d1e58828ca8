//go:build !amd64 || purego

package tensor

import "testing"

// gemmFeatures says why this build has the portable GEMM only.
func gemmFeatures() string { return "no assembly kernels in this build" }

// checkCPUFeatures has nothing to check: this build runs no kernel that
// CPUID selects.
func checkCPUFeatures(t *testing.T) {}
