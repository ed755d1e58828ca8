package nn

import (
	"math"

	"a2sgd/internal/tensor"
)

// SoftmaxCE computes the mean softmax cross-entropy loss over a batch of
// logits (rows = samples, cols = classes) with integer labels, and the
// gradient dL/dlogits in the same shape, freshly allocated. Numerically
// stabilized by the per-row max shift. Training loops use a SoftmaxLoss,
// which keeps the gradient matrix between calls.
func SoftmaxCE(logits *tensor.Mat, labels []int) (loss float64, dlogits *tensor.Mat) {
	var l SoftmaxLoss
	return l.Loss(logits, labels)
}

// SoftmaxLoss is SoftmaxCE with workspaces: the gradient it returns is owned
// by the SoftmaxLoss and valid until its next Loss call, under the same rule
// as a Layer's results.
type SoftmaxLoss struct {
	d    buf
	exps []float64
}

// Loss returns SoftmaxCE(logits, labels).
func (l *SoftmaxLoss) Loss(logits *tensor.Mat, labels []int) (loss float64, dlogits *tensor.Mat) {
	d := l.d.get(logits.Rows, logits.Cols)
	return l.into(d, logits, labels), d
}

// into writes dL/dlogits over every element of d and returns the loss. d may
// be logits itself: each row is read in full before it is written.
func (l *SoftmaxLoss) into(d, logits *tensor.Mat, labels []int) (loss float64) {
	if len(labels) != logits.Rows {
		panic("nn: SoftmaxCE label count mismatch")
	}
	// Each exponential is needed twice, for the normaliser and for its own
	// probability; tensor.SoftmaxRows computes it once, into l.exps.
	l.exps = grow(l.exps, tensor.SoftmaxBlock*logits.Cols)
	invB := 1 / float32(logits.Rows)
	return tensor.SoftmaxRows(d.Data, logits.Data, logits.Cols, labels, l.exps, invB) / float64(logits.Rows)
}

// Accuracy returns the top-1 accuracy of logits against labels.
func Accuracy(logits *tensor.Mat, labels []int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	correct := 0
	for s := 0; s < logits.Rows; s++ {
		if tensor.MaxIdx(logits.Row(s)) == labels[s] {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}

// Perplexity converts a mean cross-entropy (nats per token) into the
// perplexity score the paper reports for LSTM-PTB.
func Perplexity(meanCE float64) float64 { return math.Exp(meanCE) }
