//go:build !amd64 || purego

package tensor

// layerVariants lists every variant of the layer kernels this binary can
// run: without assembly, the portable one.
func layerVariants() []layerVariant { return []layerVariant{layerPortable} }
