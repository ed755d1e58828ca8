package health

import (
	"sort"
	"sync"
	"time"

	"a2sgd/internal/netsim"
)

// Options sizes the monitor's sample rings. The zero value selects the
// default.
type Options struct {
	// LinkWindow is the per-directed-link ring size for send samples
	// (default 32).
	LinkWindow int
}

func (o Options) withDefaults() Options {
	if o.LinkWindow <= 0 {
		o.LinkWindow = 32
	}
	return o
}

// Classification gates.
const (
	// degradeFactor is the ratio gate: a link is slow only if its α exceeds
	// the baseline α by this factor.
	degradeFactor = 1.6
	// madGate is the robust outlier gate: a slow link's α must also exceed
	// the baseline by this many median absolute deviations.
	madGate = 4
	// minGap is an absolute floor on the α excess of a slow link, so
	// sub-microsecond scheduler noise on a fast fabric can never trip the
	// ratio gates.
	minGap = 5 * time.Microsecond
	// minLinkSamples is the sample count a link needs before its estimate
	// participates in classification.
	minLinkSamples = 4
)

// State classifies one rank's health.
type State int

// Rank health states.
const (
	// Healthy ranks keep pace with the group.
	Healthy State = iota
	// Degraded ranks are alive but slow: the rank is the unique common
	// endpoint of the group's slow links.
	Degraded
)

func (s State) String() string {
	if s == Degraded {
		return "degraded"
	}
	return "healthy"
}

// linkWindow is one directed link's send-sample rings (payload bytes and
// observed wall seconds per send, as timed by the sender).
type linkWindow struct {
	mu    sync.Mutex
	bytes []float64
	sec   []float64
	n     int
}

// Monitor collects one worker group's per-link send samples and classifies
// its ranks. All state is preallocated at construction: the recorders write
// into fixed rings under per-link mutexes, so the instrumented training step
// stays allocation-free. One Monitor serves exactly one fixed-world training
// segment; elastic supervisors build a fresh one per membership epoch.
type Monitor struct {
	world int
	links []linkWindow // [src*world+dst], sender-side samples
	recs  []Recorder
}

// NewMonitor builds a monitor for a world-rank group.
func NewMonitor(world int, opts Options) *Monitor {
	if world < 1 {
		world = 1
	}
	o := opts.withDefaults()
	m := &Monitor{
		world: world,
		links: make([]linkWindow, world*world),
		recs:  make([]Recorder, world),
	}
	for r := range m.recs {
		m.recs[r] = Recorder{m: m, rank: r}
	}
	for i := range m.links {
		lw := &m.links[i]
		lw.bytes = make([]float64, o.LinkWindow)
		lw.sec = make([]float64, o.LinkWindow)
	}
	return m
}

// World returns the rank count the monitor was built for.
func (m *Monitor) World() int { return m.world }

// Recorder returns rank's preallocated send recorder. The returned pointer
// is stable, so method values built from it once at setup never allocate
// again.
func (m *Monitor) Recorder(rank int) *Recorder {
	if rank < 0 || rank >= m.world {
		return nil
	}
	return &m.recs[rank]
}

// Recorder is one rank's write handle into the monitor: ring writes under a
// short mutex, no allocation, safe for the rank's worker goroutine and its
// progress workers concurrently.
type Recorder struct {
	m    *Monitor
	rank int
}

// ObserveSend records one point-to-point send: nBytes of payload to global
// rank `to` took sec wall seconds on the sending side. Out-of-range and
// self sends are dropped.
func (r *Recorder) ObserveSend(to, nBytes int, sec float64) {
	m := r.m
	if to < 0 || to >= m.world || to == r.rank {
		return
	}
	lw := &m.links[r.rank*m.world+to]
	lw.mu.Lock()
	i := lw.n % len(lw.bytes)
	lw.bytes[i] = float64(nBytes)
	lw.sec[i] = sec
	lw.n++
	lw.mu.Unlock()
}

// Class is one rank's classification.
type Class struct {
	Rank  int
	State State
	// SlowLinks counts the slow links touching this rank; Ratio is the worst
	// slow link's α over the group median α (0 when none).
	SlowLinks int
	Ratio     float64
}

// linkEstimate is one directed link's robust α–β fit.
type linkEstimate struct {
	src, dst    int
	alpha, beta float64
	samples     int
}

// median sorts xs in place and returns its median (0 for empty input).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// fitAlphaBeta is a Theil–Sen α–β fit over (bytes, sec) samples: β is the
// median of pairwise slopes across distinct payload sizes, α the median
// residual, both clamped non-negative. Medians make the fit robust to the
// occasional send that blocked on an unready receiver.
func fitAlphaBeta(bytes, sec []float64) (alpha, beta float64) {
	var slopes []float64
	for i := 0; i < len(sec); i++ {
		for j := i + 1; j < len(sec); j++ {
			if db := bytes[j] - bytes[i]; db != 0 {
				slopes = append(slopes, (sec[j]-sec[i])/db)
			}
		}
	}
	if len(slopes) > 0 {
		beta = median(slopes)
		if beta < 0 {
			beta = 0
		}
	}
	res := make([]float64, len(sec))
	for i := range sec {
		res[i] = sec[i] - beta*bytes[i]
	}
	alpha = median(res)
	if alpha < 0 {
		alpha = 0
	}
	return alpha, beta
}

// linkEstimates fits every directed link with at least minLinkSamples
// samples. Called off the hot path; it snapshots each ring under its mutex.
func (m *Monitor) linkEstimates() []linkEstimate {
	out := make([]linkEstimate, 0, m.world*(m.world-1))
	for s := 0; s < m.world; s++ {
		for d := 0; d < m.world; d++ {
			if s == d {
				continue
			}
			lw := &m.links[s*m.world+d]
			lw.mu.Lock()
			n := lw.n
			if n > len(lw.bytes) {
				n = len(lw.bytes)
			}
			if n < minLinkSamples {
				lw.mu.Unlock()
				continue
			}
			b := append([]float64(nil), lw.bytes[:n]...)
			t := append([]float64(nil), lw.sec[:n]...)
			lw.mu.Unlock()
			a, bt := fitAlphaBeta(b, t)
			out = append(out, linkEstimate{src: s, dst: d, alpha: a, beta: bt, samples: n})
		}
	}
	return out
}

// Classify evaluates the group. The straggler-localization logic leans on how
// a slow host manifests at the transport: occupancy of every link touching it
// (sends both to and from the rank slow down), while the synchronous
// collectives spread the resulting stall evenly across every rank's step
// time. Per-rank wall clocks therefore cannot name the culprit — per-link α
// outliers can. A rank is Degraded when it is the unique common endpoint of
// the slow-link set: at least two slow links touch it and strictly more than
// touch any other rank (a two-rank world cannot be localized this way — both
// endpoints tie).
func (m *Monitor) Classify() []Class {
	out := make([]Class, m.world)
	for r := range out {
		out[r].Rank = r
	}

	ests := m.linkEstimates()
	alphas := make([]float64, len(ests))
	for i, e := range ests {
		alphas[i] = e.alpha
	}
	// Baseline: the lower quartile of per-link αs, not the median — one
	// straggler contaminates 2/world of all directed links (half of them at
	// world 4), so the median can sit inside the slow cluster while the
	// lower quartile stays in the fast one. The spread gate is a MAD over
	// the lower half only (the fast cluster's own noise scale) for the same
	// reason.
	sorted := append([]float64(nil), alphas...)
	sort.Float64s(sorted)
	var gm, mad float64
	if n := len(sorted); n > 0 {
		gm = sorted[(n-1)/4]
		lower := sorted[:(n+1)/2]
		devs := make([]float64, len(lower))
		for i, a := range lower {
			if a > gm {
				devs[i] = a - gm
			} else {
				devs[i] = gm - a
			}
		}
		mad = median(devs)
	}
	slow := func(a float64) bool {
		return a > degradeFactor*gm && a-gm > madGate*mad && a-gm > minGap.Seconds()
	}
	for _, e := range ests {
		if !slow(e.alpha) {
			continue
		}
		ratio := e.alpha / gm
		if gm <= 0 {
			ratio = 0
		}
		for _, r := range [2]int{e.src, e.dst} {
			out[r].SlowLinks++
			if ratio > out[r].Ratio {
				out[r].Ratio = ratio
			}
		}
	}

	// Unique common endpoint: the single rank touched by strictly the most
	// slow links, with at least two of them.
	best, second := -1, 0
	for r := range out {
		switch {
		case best < 0 || out[r].SlowLinks > out[best].SlowLinks:
			if best >= 0 && out[best].SlowLinks > second {
				second = out[best].SlowLinks
			}
			best = r
		case out[r].SlowLinks > second:
			second = out[r].SlowLinks
		}
	}
	if best >= 0 && out[best].SlowLinks >= 2 && out[best].SlowLinks > second {
		out[best].State = Degraded
	}
	return out
}

// MeasuredFabric condenses the link estimates into a flat α–β fabric the
// planner can price on. Synchronous collectives are bound by their slowest
// link, so the estimate takes the worst per-link α and β rather than a mean.
// ok is false until at least one link has enough samples.
func (m *Monitor) MeasuredFabric(name string) (f netsim.Fabric, ok bool) {
	var maxA, maxB float64
	for _, e := range m.linkEstimates() {
		ok = true
		if e.alpha > maxA {
			maxA = e.alpha
		}
		if e.beta > maxB {
			maxB = e.beta
		}
	}
	if !ok {
		return netsim.Fabric{}, false
	}
	return netsim.Measured(name, maxA, maxB), true
}

// DriftRefBytes is the bandwidth-regime reference message size Drift
// compares fabrics at: large enough that β matters, small enough that α is
// not lost — the typical compressed-bucket payload.
const DriftRefBytes = 8192

// Drift returns a conservative ≥1 divergence figure between the measured and
// modelled fabric, with 1 meaning the measurements match the model. It is
// the minimum of two worst-direction cost ratios: the pure-latency regime
// (α alone, a zero-byte message) and the bandwidth regime (a DriftRefBytes
// point-to-point message). A real fabric shift — a degraded NIC, a congested
// switch — multiplies whole send times and so moves both regimes together,
// while noise in the per-byte β fit alone (short runs fit β from few samples
// and can clamp it to zero) only moves the large-message figure. Taking the
// minimum keeps β noise from faking drift without hiding genuine whole-link
// slowdowns.
func Drift(measured, model netsim.Fabric) float64 {
	lat := ratioAt(measured, model, 0)
	bw := ratioAt(measured, model, DriftRefBytes)
	if lat < bw {
		return lat
	}
	return bw
}

func ratioAt(measured, model netsim.Fabric, bytes int64) float64 {
	a := measured.PointToPoint(bytes)
	b := model.PointToPoint(bytes)
	if a <= 0 || b <= 0 {
		return 1
	}
	if a > b {
		return a / b
	}
	return b / a
}
