package compress

// Algorithm state capture. Several builtins carry cross-step state — error
// feedback residuals (Top-K, Gaussian-K), Periodic's step counter, and the
// RNG streams of the stochastic quantizers. A checkpoint that omits any of
// it cannot resume a run bitwise, so stateful algorithms implement
// StateSaver/StateLoader and the elastic runtime snapshots every per-bucket
// instance through them.
//
// A State's vectors come in two flavors:
//
//   - Vecs are element-aligned: each vector has exactly the bucket's element
//     count, with entry i describing gradient element bounds[b]+i. Because
//     they are positional, Vecs survive a bucket-plan change: RemapStates
//     scatters them into model-length vectors at the old bucket offsets and
//     re-slices them at the new bounds. Residual mass is never lost to a
//     re-plan.
//   - Words are opaque (RNG state, counters). They are only meaningful to the
//     exact algorithm that saved them over the exact same bucket, so a remap
//     across changed bounds drops them and the rebuilt instance keeps its
//     fresh deterministic seed (compress.BucketSeed) — deterministic either
//     way, which is what the resharding guarantee needs.

// State is a deep-copied snapshot of one algorithm instance's cross-step
// state. The zero value (nil maps) means "no carried state".
type State struct {
	// Alg is the saving instance's Name(), so a restore can refuse state
	// saved by a different algorithm.
	Alg string
	// Vecs holds element-aligned vectors keyed by role ("ef").
	Vecs map[string][]float32
	// Words holds opaque word blobs keyed by role ("rng", "periodic.step").
	Words map[string][]uint64
}

// setVec deep-copies v into the state under key.
func (s *State) setVec(key string, v []float32) {
	if s.Vecs == nil {
		s.Vecs = map[string][]float32{}
	}
	s.Vecs[key] = append([]float32(nil), v...)
}

// setWords deep-copies w into the state under key.
func (s *State) setWords(key string, w []uint64) {
	if s.Words == nil {
		s.Words = map[string][]uint64{}
	}
	s.Words[key] = append([]uint64(nil), w...)
}

// vec copies the stored vector for key into dst (length-matched); a missing
// key leaves dst untouched (the instance keeps its fresh zero state).
func (s State) vec(key string, dst []float32) {
	if v, ok := s.Vecs[key]; ok && len(v) == len(dst) {
		copy(dst, v)
	}
}

// words returns the stored blob for key, or nil.
func (s State) words(key string) []uint64 { return s.Words[key] }

// StateSaver is implemented by algorithms with cross-step state. SaveState
// returns a deep copy — mutating the instance afterwards does not change the
// snapshot, and vice versa.
type StateSaver interface {
	SaveState() State
}

// StateLoader restores state captured by SaveState on a compatible instance
// (same spec, same bucket length). Unknown or missing keys are ignored: the
// instance keeps its fresh deterministic initialization for them, so loading
// a remapped State that lost its Words is safe.
type StateLoader interface {
	LoadState(State)
}

// SaveStates captures every bucket's algorithm state. Buckets whose
// algorithm carries no state (dense, A2SGD) get an empty State with the
// algorithm's name, so a restore can still verify spec compatibility.
func (bk *Bucketed) SaveStates() []State {
	out := make([]State, len(bk.algs))
	for b, a := range bk.algs {
		if sv, ok := a.(StateSaver); ok {
			out[b] = sv.SaveState()
		}
		out[b].Alg = a.Name()
	}
	return out
}

// LoadStates restores per-bucket states captured by SaveStates. states must
// be parallel to the buckets (a short slice restores a prefix). Words are
// only loaded into a bucket whose algorithm name matches the saved one —
// opaque state from a different spec would corrupt the stream.
func (bk *Bucketed) LoadStates(states []State) {
	for b, a := range bk.algs {
		if b >= len(states) {
			return
		}
		ld, ok := a.(StateLoader)
		if !ok {
			continue
		}
		st := states[b]
		if st.Alg != "" && st.Alg != a.Name() {
			// Spec changed under this bucket: element-aligned vectors still
			// transfer (residual mass is algorithm-agnostic error), opaque
			// words do not.
			st.Words = nil
		}
		ld.LoadState(st)
	}
}

// RemapStates re-buckets per-bucket states from one bucket plan to another
// over the same flattened parameter space. Element-aligned Vecs are scattered
// into model-length vectors at the old offsets and re-sliced at the new
// bounds; buckets whose [lo, hi) range is unchanged keep their Words and Alg
// tag, every other bucket drops them (see the package comment on why that is
// deterministic). oldBounds and newBounds are cumulative offsets ending at
// the same element count n.
func RemapStates(states []State, oldBounds, newBounds []int) []State {
	if boundsEqual(oldBounds, newBounds) {
		return states
	}
	n := oldBounds[len(oldBounds)-1]
	// Gather each vector role into one model-length vector.
	global := map[string][]float32{}
	for b, st := range states {
		lo, hi := oldBounds[b], oldBounds[b+1]
		for key, v := range st.Vecs {
			if len(v) != hi-lo {
				continue // not element-aligned; cannot be remapped
			}
			g, ok := global[key]
			if !ok {
				g = make([]float32, n)
				global[key] = g
			}
			copy(g[lo:hi], v)
		}
	}
	// Index old buckets by range so unchanged buckets keep opaque state.
	type span struct{ lo, hi int }
	oldAt := map[span]State{}
	for b, st := range states {
		oldAt[span{oldBounds[b], oldBounds[b+1]}] = st
	}
	out := make([]State, len(newBounds)-1)
	for b := range out {
		lo, hi := newBounds[b], newBounds[b+1]
		if st, ok := oldAt[span{lo, hi}]; ok {
			out[b] = st
			continue
		}
		for key, g := range global {
			seg := g[lo:hi]
			if !allZero(seg) {
				out[b].setVec(key, seg)
			}
		}
	}
	return out
}

func boundsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allZero(v []float32) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}
