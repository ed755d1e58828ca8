//go:build !amd64 || purego

package tensor

import "testing"

// checkCPUFeatures has nothing to check: this build runs no kernel that
// CPUID selects.
func checkCPUFeatures(t *testing.T) {}
