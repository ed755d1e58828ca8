package tensor

import "math"

// Sigmoid sets dst[i] = float32(1 / (1 + math.Exp(-float64(src[i])))). Panics
// when lengths differ; dst may be src. Every build gives those bits
// (package comment, "Transcendentals").
func Sigmoid(dst, src Vec) {
	checkLen(len(dst), len(src))
	vecSigmoid(dst, src)
}

// Tanh sets dst[i] = float32(math.Tanh(float64(src[i]))). Panics when lengths
// differ; dst may be src.
func Tanh(dst, src Vec) {
	checkLen(len(dst), len(src))
	vecTanh(dst, src)
}

// ExpShift sets dst[i] = math.Exp(float64(src[i] - m)), the shifted
// exponentials of a softmax. Panics when lengths differ.
func ExpShift(dst []float64, src Vec, m float32) {
	checkLen(len(dst), len(src))
	vecExpShift(dst, src, m)
}

func sigmoidScalar(dst, src Vec) {
	for i, x := range src {
		dst[i] = float32(1 / (1 + math.Exp(-float64(x))))
	}
}

func tanhScalar(dst, src Vec) {
	for i, x := range src {
		dst[i] = float32(math.Tanh(float64(x)))
	}
}

func expShiftScalar(dst []float64, src Vec, m float32) {
	for i, x := range src {
		dst[i] = math.Exp(float64(x - m))
	}
}
