package health

import (
	"testing"
	"time"

	"a2sgd/internal/netsim"
)

// fill feeds every directed link of a world-w monitor four distinct-size
// samples priced at alpha + beta*bytes, with links touching each rank in
// slowRanks priced at slowAlpha instead.
func fill(m *Monitor, w int, alpha, beta, slowAlpha float64, slowRanks ...int) {
	slow := map[int]bool{}
	for _, r := range slowRanks {
		slow[r] = true
	}
	for s := 0; s < w; s++ {
		rec := m.Recorder(s)
		for d := 0; d < w; d++ {
			if s == d {
				continue
			}
			a := alpha
			if slow[s] || slow[d] {
				a = slowAlpha
			}
			for _, n := range []int{1000, 2000, 4000, 8000} {
				rec.ObserveSend(d, n, a+beta*float64(n))
			}
		}
	}
}

func TestClassifyLocalizesDegradedRank(t *testing.T) {
	const w = 4
	m := NewMonitor(w, Options{})
	fill(m, w, 2e-6, 1e-9, 400e-6, 2)
	cls := m.Classify()
	for r, cl := range cls {
		want := Healthy
		if r == 2 {
			want = Degraded
		}
		if cl.State != want {
			t.Errorf("rank %d: state %v, want %v (slow links %d, ratio %.1f)", r, cl.State, want, cl.SlowLinks, cl.Ratio)
		}
	}
	if cls[2].SlowLinks < 2 {
		t.Errorf("degraded rank saw %d slow links, want >= 2", cls[2].SlowLinks)
	}
	if cls[2].Ratio < 10 {
		t.Errorf("degraded rank ratio %.1f, want a large outlier", cls[2].Ratio)
	}
}

func TestClassifyHealthyWhenUniform(t *testing.T) {
	const w = 4
	m := NewMonitor(w, Options{})
	fill(m, w, 2e-6, 1e-9, 2e-6)
	for _, cl := range m.Classify() {
		if cl.State != Healthy {
			t.Errorf("rank %d: state %v on a uniform fabric", cl.Rank, cl.State)
		}
	}
}

func TestClassifyNoiseBelowMinGapIsHealthy(t *testing.T) {
	// A 3x α outlier that is still tiny in absolute terms (sub-µs) must not
	// trip the ladder: minGap floors the required excess.
	const w = 4
	m := NewMonitor(w, Options{})
	fill(m, w, 100e-9, 1e-12, 300e-9, 1)
	for _, cl := range m.Classify() {
		if cl.State != Healthy {
			t.Errorf("rank %d: state %v from sub-minGap noise", cl.Rank, cl.State)
		}
	}
}

func TestMeasuredFabricTakesWorstLink(t *testing.T) {
	const w = 3
	m := NewMonitor(w, Options{})
	if _, ok := m.MeasuredFabric("m"); ok {
		t.Fatal("MeasuredFabric ok with no samples")
	}
	fill(m, w, 5e-6, 2e-9, 500e-6, 1)
	f, ok := m.MeasuredFabric("m")
	if !ok {
		t.Fatal("MeasuredFabric not ok after sampling")
	}
	if f.Name != "m" {
		t.Errorf("name %q", f.Name)
	}
	// Worst link α is the degraded one; β is shared.
	if f.Alpha < 400e-6 || f.Alpha > 600e-6 {
		t.Errorf("alpha %.3g, want ~500µs (worst link)", f.Alpha)
	}
	if f.Beta < 1e-9 || f.Beta > 4e-9 {
		t.Errorf("beta %.3g, want ~2e-9", f.Beta)
	}
}

func TestDrift(t *testing.T) {
	model := netsim.IB100()
	if d := Drift(model, model); d != 1 {
		t.Errorf("self drift %.3f, want 1", d)
	}
	slow := netsim.Measured("slow", model.Alpha*10, model.Beta*10)
	if d := Drift(slow, model); d < 9 || d > 11 {
		t.Errorf("10x drift measured as %.2f", d)
	}
	// Symmetric: a faster-than-modelled fabric drifts by the same ratio.
	if a, b := Drift(slow, model), Drift(model, slow); a != b {
		t.Errorf("drift not symmetric: %.3f vs %.3f", a, b)
	}
	if d := Drift(netsim.Fabric{}, model); d != 1 {
		t.Errorf("zero-fabric drift %.3f, want neutral 1", d)
	}
	// β-fit noise alone (short runs can clamp the per-byte slope to zero)
	// must not fake drift: with α intact, the latency-regime ratio stays
	// near 1 and the conservative minimum keeps the figure small.
	noisy := netsim.Measured("noisy", model.Alpha, 0)
	if d := Drift(noisy, model); d != 1 {
		t.Errorf("β-only noise measured as %.2f drift, want 1", d)
	}
}

func TestRecorderZeroAlloc(t *testing.T) {
	m := NewMonitor(4, Options{})
	rec := m.Recorder(1)
	send := rec.ObserveSend
	if n := testing.AllocsPerRun(100, func() {
		send(2, 4096, 1e-5)
	}); n != 0 {
		t.Errorf("recorder beacons allocate %.1f per call, want 0", n)
	}
}

func TestOptionsDefaults(t *testing.T) {
	if o := (Options{}).withDefaults(); o.LinkWindow != 32 || minLinkSamples != 4 {
		t.Errorf("defaults %+v, min link samples %d", o, minLinkSamples)
	}
	if degradeFactor != 1.6 || madGate != 4 || minGap != 5*time.Microsecond {
		t.Errorf("gates %v/%v/%v", degradeFactor, madGate, minGap)
	}
}
