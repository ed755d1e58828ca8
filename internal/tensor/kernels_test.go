package tensor

import "testing"

// TestKernelVariants logs, for each kernel family, the variants this binary
// can run on this CPU and the one in use (the widest; for the
// transcendentals, per function), so a test log shows which kernels a
// machine executed — the 512-bit ones included — and then
// holds the CPU feature detection to what the OS reports, where it can.
func TestKernelVariants(t *testing.T) {
	var gemm, layer, trans, signed, finite []string
	for _, v := range gemmVariants() {
		gemm = append(gemm, v.name)
	}
	for _, v := range layerVariants() {
		layer = append(layer, v.name)
	}
	for _, v := range transVariants() {
		trans = append(trans, v.name)
	}
	for _, v := range signedVariants() {
		signed = append(signed, v.name)
	}
	for _, v := range finiteVariants() {
		finite = append(finite, v.name)
	}
	t.Logf("gemm:   %-8s of %v", gemmActive.name, gemm)
	t.Logf("layer:  %-8s of %v", layerActive.name, layer)
	t.Logf("trans:  %-8s of %v (%s)", transActive.name, trans, transKernelsInUse())
	t.Logf("signed: %-8s of %v", signedActive.name, signed)
	t.Logf("finite: %-8s of %v", finiteActive.name, finite)
	checkCPUFeatures(t)
}
