//go:build !amd64 || purego

package tensor

// Portable fallbacks for the assembly kernels in simd_amd64.s. Selected on
// non-amd64 targets and under the purego build tag; bitwise-identical to the
// vector kernels by construction (same per-element arithmetic).

func vecAdd(dst, src Vec)                 { addScalar(dst, src) }
func vecAXPY(dst Vec, a float32, src Vec) { axpyScalar(dst, a, src) }
func vecScale(v Vec, c float32)           { scaleScalar(v, c) }

// quantFieldsArch handles no elements on portable builds; the caller's scalar
// loop does all the work.
func quantFieldsArch(fields []uint32, g []float32, rnd []float64, norm float32, levels int) int {
	return 0
}

// signedVariants lists every variant of the two A2SGD passes this binary can
// run: without assembly, the portable one.
func signedVariants() []signedVariant { return []signedVariant{signedPortable} }

// finiteVariants lists every variant of HasNaNOrInf this binary can run:
// without assembly, the scalar loop.
func finiteVariants() []finiteVariant { return []finiteVariant{finitePortable} }

func vecAbsInto(dst, src Vec) { absIntoScalar(dst, src) }

// gaussTailArch handles no elements on portable builds; the caller's scalar
// predicate does all the work.
func gaussTailArch(dst []int32, src []float32, base int32, mu, tau float64) (nsel, done int) {
	return 0, 0
}

func eliasPackArch(words []uint32, fields []uint32, bitPos uint64) uint64 {
	return eliasPackScalar(words, fields, bitPos)
}

// transVariants lists every variant of the transcendentals this binary can
// run: without assembly, the scalar loops.
func transVariants() []transVariant { return []transVariant{transPortable} }

func normVec(dst []float32, us, ss []float64, mean, std float32) { normScalar(dst, us, ss, mean, std) }
