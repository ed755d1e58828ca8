// Package nn is a from-scratch neural-network framework with reverse-mode
// backpropagation: fully connected, convolutional, batch-norm, pooling,
// residual, embedding and LSTM layers plus a softmax cross-entropy loss.
// It plays the role PyTorch plays in the paper — producing real gradients
// from real training so that the distributed synchronization experiments
// operate on genuine gradient distributions (Figure 1), not synthetic noise.
//
// # Data layout
//
// A batch is a tensor.Mat with one sample per row. Image tensors are
// flattened row-major as C×H×W per row; convolutional layers carry the
// (C, H, W) shape metadata themselves.
//
// # Ownership and the allocation-free step
//
// A warm training step allocates nothing. Every layer (and LSTMLM, and
// SoftmaxLoss) keeps grow-only workspaces for what it returns and what its
// backward pass needs — outputs, input gradients, the batched im2col tape and
// its gradient, batch-norm's normalized activations, pooling arg-maxes, the
// LSTM's BPTT tapes — and hands out the same matrices call after call. The
// rule that makes this safe is on Layer:
//
//   - A matrix returned by Forward or Backward belongs to the layer and is
//     valid until the next call (of either method) on that layer. Inside a
//     Network nothing outlives that: layer i's output is read by layer i+1's
//     Forward and Backward, both before layer i runs again. A caller that
//     holds a result across a later call on the same layer Clones it.
//   - Nobody but the owner writes to a returned matrix, and a layer never
//     writes to its input (ReLU's backward reads its own output, Linear's a
//     reference to its input — both must still hold what Forward left).
//   - A workspace is not cleared between uses. The freshly allocated matrices
//     they replace were zero, and several loops relied on it (im2col padding,
//     ReLU outputs, the input gradients of the pools and of col2im); each
//     of those now writes or clears every element itself.
//   - The backward record lives in the same workspaces evaluation uses, so a
//     Forward(train=false) between a training Forward and its Backward
//     destroys it: ReLU would mask by the evaluation batch's signs, Conv2D
//     would multiply by its tape, and so on. Finish the step, then evaluate.
//     Every layer stamps its record — a training Forward sets the stamp, an
//     evaluation Forward clears it — and Backward panics, naming the layer,
//     on a cleared one (LSTMLM checks that its last Forward was a training
//     one), so the mistake cannot pass silently.
//   - A Network's training step does not take the input gradient of its
//     bottom layer, and does not form it: BackwardInterleaved, which returns
//     none, runs a bottom Conv2D or Linear through its parameter gradients
//     only, skipping the tape-gradient product and col2im (Conv2D) or the
//     dx product (Linear). Network.Backward, which returns the input
//     gradient, still computes it. The parameter gradients are the same bits
//     either way.
//   - Workspaces only grow, and Network.Forward runs an evaluation batch in
//     chunks of the last training batch's size, so evaluating on a large
//     held-out set between steps neither evicts anything a training step
//     needs nor sizes any workspace.
//
// # Arithmetic
//
// All matrix products go through tensor.Gemm, whose specification (one
// float32 accumulator per output element, k ascending, each term one fused
// multiply-add rounded once as tensor.FMA32 rounds it, the same for every
// product) is written in the tensor package comment; the layers batch
// products only where each output element's sum is unchanged. LSTMLM copies each layer's Whᵀ to row-major once per
// Forward, so the T recurrent products read it in place. Conv2D lowers a
// whole batch into one tape and multiplies once for the forward pass, once
// for the weight gradient and once for the tape gradient. The weight
// gradient keeps its per-sample association: it is one segmented product
// (tensor.GemmAddSegmented) whose segments are the samples, each sample's
// sum from +0 added in sample order. The bias gradient is per sample, a
// float64 running sum over each channel's pixels (tensor.ChannelSums),
// added in sample order, and the bias itself is added as the product is
// transposed to sample-major rows (tensor.AddBias); col2im and batch-norm
// keep the order of their sums. In the common geometry (stride 1, output as
// large as the input) the lowering moves each kernel position of a channel
// as one shifted block over the whole batch, through a channel-major copy
// of the input (or of its gradient), with one masked copy or add
// (tensor.MaskCopy, MaskAdd) that stores, or adds, +0 at the block's pads;
// see Conv2D.shifted. Every family's gradients and losses are pinned to the
// last bit by golden digests (internal/models).
//
// The other layers' orders are written down too, because the vector kernels
// that run them on amd64 (tensor package comment, "Layer kernels") must
// reproduce them:
//
//   - BatchNorm2D's statistics are per channel, each a float64 running sum
//     from +0 over the channel's elements in (sample, pixel) order of the
//     exactly converted values: Σx and Σx² forward, Σdy and Σdy·x̂ backward,
//     each product exact in float64 (tensor.ChannelSums). The mean, the
//     variance and 1/σ follow per channel in float64, then the elementwise
//     passes in float32 with every operation rounded: x̂ = (x − µ)·inv,
//     y = γ·x̂ + β (tensor.Normalize), and dx = k·((n·dy − Σdy) − x̂·Σdy·x̂)
//     with k = γ·inv/n computed once per channel, left to right
//     (tensor.NormalizeGrad).
//   - MaxPool2D takes each window's elements in row-major order against a
//     running best that starts at −Inf, replacing it on a strict >: the
//     first maximal element wins a tie and receives the gradient, NaN never
//     wins, and a window with nothing above −Inf (all −Inf, all NaN)
//     outputs −Inf and routes its gradient to its first element
//     (tensor.MaxPool). Its backward writes each window once: +0, and
//     0 + dy at the arg-max, so a −0 gradient lands as +0.
//   - ReLU outputs x where x > 0 and +0 elsewhere (−0 and NaN included),
//     and passes dy where its output is nonzero (tensor.ReLU, ReLUGrad).
//   - LSTMLM's forward takes each time step's rows in one call after the
//     recurrent product (tensor.LSTMCell): per element, the bias added to
//     each gate pre-activation in float32, σ of i, f and o and tanh of g
//     (tensor.Sigmoid's and Tanh's expressions), the cell update
//     c = f·c₋₁ + i·g with each product rounded on its own, tanh(c), and
//     h = o·tanh(c). Its backward takes each time step's rows in one call
//     (tensor.LSTMGateGrad): per element, in float32 with every operation
//     rounded, dc_tot = dc + (dh·o)·(1 − tanh(c)²), the four gate
//     gradients in the order written there, and dc₋₁ = dc_tot·f in place.
//   - SoftmaxLoss takes each row's maximum by a strict > from its first
//     element, the shifted exponentials in float64 (tensor.ExpShift), their
//     sum from +0 in ascending column order, and one math.Log; each
//     probability is rounded to float32, less 1 at the label, times 1/B
//     (tensor.SoftmaxRows). The LSTM's loss and every classifier head use it.
//
// # One flattened layout
//
// Params() order is the layout; position is identity; views move everything.
// A model's learnable tensors are, in Params() order, the flattened vector of
// Algorithm 1; a tensor is identified by its position in that order and its
// name is a label for people and for layer-matching patterns — two layers of
// one shape share a name. Nothing copies tensors into a flat buffer by hand:
// GradViewOf and WeightViewOf lay a tensor.VecView over the layers' live
// gradient and weight storage, Stateful.State lists the non-learnable tensors
// (batch-norm running statistics) a view lays over the same way, and
// CopyTo / CopyFrom / SliceView on those views are the only movers.
// ParamSegments exposes the per-tensor extents of the layout, and
// PlanBuckets partitions it — at layer granularity, never splitting a tensor
// — into buckets of a byte budget. The bucket plan is the scheduling unit of
// the distributed runtime's overlapped gradient pipeline (and of its
// two-level hierarchical collectives): see a2sgd/internal/cluster.
package nn
