package elastic

import (
	"fmt"

	"a2sgd/internal/cluster"
	"a2sgd/internal/compress"
	"a2sgd/internal/tensor"
)

// Reshard deterministically maps a snapshot captured at rs.World ranks onto
// world ranks. It never mutates its input (worker entries it does not modify
// are shared, entries it folds into are deep-copied first), so the same
// snapshot can be resharded repeatedly — and two independent reshards of the
// same snapshot are identical, which is what makes an elastic rescale
// reproducible: the supervisor's continuation and a fresh run launched from
// the same resharded snapshot follow the same trajectory.
//
// Shrinking drops the highest ranks. A dropped rank's weights are redundant
// (replicas hold the same parameters up to A2SGD's bounded drift), but its
// per-bucket algorithm state carries accumulated gradient mass (error
// feedback residuals) that would otherwise be lost, so every element-aligned
// state vector of dropped rank r folds (elementwise add) into survivor
// r mod world. Opaque word blobs (quantizer RNG streams, periodic
// step counters) stay with their survivors untouched.
//
// Growing admits joiners: rank r clones the weights, model state, optimizer
// momentum and loss accumulator of peer r mod rs.World, starts a fresh,
// canonically seeded sample stream (the same derivation cluster.Train uses at
// init), and begins with empty algorithm state.
func Reshard(rs *cluster.RunState, world int) (*cluster.RunState, error) {
	if rs == nil {
		return nil, fmt.Errorf("elastic: reshard of a nil snapshot")
	}
	if world < 1 {
		return nil, fmt.Errorf("elastic: reshard to world %d (want >= 1)", world)
	}
	if len(rs.Workers) != rs.World {
		return nil, fmt.Errorf("elastic: snapshot world %d != %d worker entries", rs.World, len(rs.Workers))
	}
	if world == rs.World {
		return rs, nil
	}
	out := *rs
	out.World = world
	out.Workers = make([]*cluster.WorkerState, world)

	if world < rs.World {
		copy(out.Workers, rs.Workers[:world])
		cloned := make([]bool, world)
		for r := world; r < rs.World; r++ {
			src := rs.Workers[r]
			if src == nil || len(src.Buckets) == 0 {
				continue
			}
			dst := r % world
			if !cloned[dst] {
				out.Workers[dst] = cloneWorker(out.Workers[dst])
				cloned[dst] = true
			}
			foldStates(out.Workers[dst].Buckets, src.Buckets)
		}
		return &out, nil
	}

	copy(out.Workers, rs.Workers)
	for r := rs.World; r < world; r++ {
		src := rs.Workers[r%rs.World]
		out.Workers[r] = &cluster.WorkerState{
			Rank:       r,
			Params:     clone32(src.Params),
			ModelState: clone32(src.ModelState),
			Velocity:   clone32(src.Velocity),
			LossSum:    src.LossSum,
			SampleRNG:  tensor.NewRNG(rs.Seed*1000 + uint64(r) + 1).State(),
		}
	}
	return &out, nil
}

// Evict removes one specific rank from a snapshot, unlike Reshard's
// shrink, which always drops the highest ranks. Survivors above the evicted
// rank shift down by one label (a shallow copy with an updated Rank — their
// state is shared with the input); the evicted rank's per-bucket algorithm
// state folds into survivor `rank mod (world-1)`, mirroring Reshard's policy,
// so no accumulated error-feedback mass is lost. Pure and deterministic: two
// evictions of the same rank from the same snapshot are identical.
func Evict(rs *cluster.RunState, rank int) (*cluster.RunState, error) {
	if rs == nil {
		return nil, fmt.Errorf("elastic: evict from a nil snapshot")
	}
	if len(rs.Workers) != rs.World {
		return nil, fmt.Errorf("elastic: snapshot world %d != %d worker entries", rs.World, len(rs.Workers))
	}
	if rank < 0 || rank >= rs.World {
		return nil, fmt.Errorf("elastic: evict rank %d outside world %d", rank, rs.World)
	}
	if rs.World < 2 {
		return nil, fmt.Errorf("elastic: cannot evict the last rank")
	}
	world := rs.World - 1
	out := *rs
	out.World = world
	out.Workers = make([]*cluster.WorkerState, world)
	for r := 0; r < world; r++ {
		src := r
		if r >= rank {
			src = r + 1
		}
		ws := rs.Workers[src]
		if src != r && ws != nil {
			cp := *ws
			cp.Rank = r
			ws = &cp
		}
		out.Workers[r] = ws
	}
	evicted := rs.Workers[rank]
	if evicted != nil && len(evicted.Buckets) > 0 {
		dst := rank % world
		out.Workers[dst] = cloneWorker(out.Workers[dst])
		out.Workers[dst].Rank = dst
		foldStates(out.Workers[dst].Buckets, evicted.Buckets)
	}
	return &out, nil
}

// foldStates adds src's element-aligned state vectors into dst bucket by
// bucket. Buckets whose algorithm differs (or vectors whose lengths mismatch)
// are skipped — there is no meaningful fold across algorithms.
func foldStates(dst, src []compress.State) {
	for b := 0; b < len(dst) && b < len(src); b++ {
		if dst[b].Alg != src[b].Alg {
			continue
		}
		for key, sv := range src[b].Vecs {
			dv, ok := dst[b].Vecs[key]
			if !ok {
				if dst[b].Vecs == nil {
					dst[b].Vecs = map[string][]float32{}
				}
				dst[b].Vecs[key] = clone32(sv)
				continue
			}
			if len(dv) != len(sv) {
				continue
			}
			for i := range dv {
				dv[i] += sv[i]
			}
		}
	}
}

func clone32(v []float32) []float32 {
	if v == nil {
		return nil
	}
	return append([]float32(nil), v...)
}

func cloneWorker(ws *cluster.WorkerState) *cluster.WorkerState {
	cp := &cluster.WorkerState{
		Rank:       ws.Rank,
		Params:     clone32(ws.Params),
		ModelState: clone32(ws.ModelState),
		Velocity:   clone32(ws.Velocity),
		SampleRNG:  ws.SampleRNG,
		LossSum:    ws.LossSum,
		Buckets:    make([]compress.State, len(ws.Buckets)),
	}
	for b, s := range ws.Buckets {
		cp.Buckets[b] = cloneState(s)
	}
	return cp
}

func cloneState(s compress.State) compress.State {
	cp := compress.State{Alg: s.Alg}
	if s.Vecs != nil {
		cp.Vecs = make(map[string][]float32, len(s.Vecs))
		for k, v := range s.Vecs {
			cp.Vecs[k] = clone32(v)
		}
	}
	if s.Words != nil {
		cp.Words = make(map[string][]uint64, len(s.Words))
		for k, w := range s.Words {
			cp.Words[k] = append([]uint64(nil), w...)
		}
	}
	return cp
}
