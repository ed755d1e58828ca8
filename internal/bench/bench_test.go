package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm/faultnet"
	"a2sgd/internal/compress"
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
)

func TestTable1ListsAllFamilies(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, s := range []string{"FNN-3", "VGG-16", "ResNet-20", "LSTM-PTB", "199210", "66034000"} {
		if !strings.Contains(out, s) {
			t.Errorf("Table 1 missing %q:\n%s", s, out)
		}
	}
}

func TestFigure1GradientConcentration(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure1(&buf, 4, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("expected 2 models, got %d", len(res))
	}
	for _, r := range res {
		if len(r.Histograms) != 4 {
			t.Fatalf("%s: %d captures", r.Family, len(r.Histograms))
		}
		// The paper's qualitative claim: the distribution is centered near
		// zero and concentrates as training progresses. Check that the
		// final capture's peak mass is at least the first's (weak
		// monotonicity to keep the test robust to short runs).
		first, last := r.PeakFracs[0], r.PeakFracs[len(r.PeakFracs)-1]
		if last < first*0.8 {
			t.Errorf("%s: peak fraction fell %v -> %v", r.Family, first, last)
		}
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("missing output header")
	}
}

func TestFigure2OrderingAtScale(t *testing.T) {
	var buf bytes.Buffer
	pts, err := Figure2(&buf, []int{2_000_000}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sec := map[string]float64{}
	for _, p := range pts {
		sec[p.Algo] = p.Seconds
	}
	// The paper's Figure 2 ordering: A2SGD cheapest (single pass, no
	// selection), Top-K and QSGD the most expensive.
	if !(sec["a2sgd"] < sec["topk"]) {
		t.Errorf("a2sgd (%v) should beat topk (%v)", sec["a2sgd"], sec["topk"])
	}
	if !(sec["a2sgd"] < sec["qsgd"]) {
		t.Errorf("a2sgd (%v) should beat qsgd (%v)", sec["a2sgd"], sec["qsgd"])
	}
	if !(sec["gaussiank"] < sec["topk"]) {
		t.Errorf("gaussiank (%v) should beat topk (%v)", sec["gaussiank"], sec["topk"])
	}
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("missing output header")
	}
}

func TestFigure3ConvergenceOrdering(t *testing.T) {
	var buf bytes.Buffer
	series, err := Figure3(&buf, Figure3Config{
		Families: []string{"fnn3"},
		Algos:    []string{"dense", "a2sgd", "topk"},
		Workers:  []int{4},
		Epochs:   6, Steps: 10, Batch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := map[string]float64{}
	for _, s := range series {
		final[s.Algo] = s.PerEpoch[len(s.PerEpoch)-1]
	}
	// A2SGD must land close to dense (the paper's convergence claim).
	if final["a2sgd"] < final["dense"]-0.15 {
		t.Errorf("a2sgd %.3f far below dense %.3f", final["a2sgd"], final["dense"])
	}
	// All methods must clear chance (0.1 for 10 classes).
	for a, v := range final {
		if v < 0.2 {
			t.Errorf("%s final accuracy %.3f barely above chance", a, v)
		}
	}
}

func TestIterModelAndFigure45(t *testing.T) {
	// paramScale 100 keeps the measurement fast while preserving ordering.
	m, err := NewIterModel(netsim.IB100(), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range models.Families() {
		if m.N[fam] < 1000 {
			t.Errorf("%s: n=%d", fam, m.N[fam])
		}
		// A2SGD's iteration must beat dense for every family at 16 workers
		// (communication dominates at paper scale).
		if !(m.IterSec(fam, "a2sgd", 16) <= m.IterSec(fam, "dense", 16)) {
			t.Errorf("%s: a2sgd iter %.5f > dense %.5f", fam,
				m.IterSec(fam, "a2sgd", 16), m.IterSec(fam, "dense", 16))
		}
	}
	var buf bytes.Buffer
	cells4 := Figure4(&buf, m, nil)
	if len(cells4) != 4*5*4 {
		t.Errorf("figure4 cells: %d", len(cells4))
	}
	cells5 := Figure5(&buf, m, nil)
	if len(cells5) != 4*5*4 {
		t.Errorf("figure5 cells: %d", len(cells5))
	}
	// Figure 5's data-parallel speedup: total time falls with more workers
	// for A2SGD on every family.
	tot := map[string]map[int]float64{}
	for _, c := range cells5 {
		if c.Algo == "a2sgd" {
			if tot[c.Family] == nil {
				tot[c.Family] = map[int]float64{}
			}
			tot[c.Family][c.Workers] = c.TotalSec
		}
	}
	for fam, byP := range tot {
		if !(byP[16] < byP[2]) {
			t.Errorf("%s: total time did not fall with workers: %v", fam, byP)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "Figure 5") {
		t.Error("missing headers")
	}
}

func TestTable2ScalingEfficiency(t *testing.T) {
	m, err := NewIterModel(netsim.IB100(), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	eff := Table2(&buf, m)
	// Dense at 8 workers vs itself at 2 workers must show speedup > 1.
	for fam, e := range eff["dense"] {
		if e <= 1 {
			t.Errorf("dense scaling eff for %s = %v, want > 1", fam, e)
		}
	}
	// A2SGD must scale at least as well as dense on the big models — the
	// Table 2 shape (6.37× vs 2.34× for LSTM).
	if eff["a2sgd"]["lstm"] < eff["dense"]["lstm"] {
		t.Errorf("a2sgd lstm eff %v < dense %v", eff["a2sgd"]["lstm"], eff["dense"]["lstm"])
	}
	out := buf.String()
	for _, s := range []string{"O(n + k log n)", "64", "32n"} {
		if !strings.Contains(out, s) {
			t.Errorf("Table 2 missing %q", s)
		}
	}
}

func TestMixedSweepComparesPolicies(t *testing.T) {
	cfg := SweepConfig{
		Workers: 2, Epochs: 1, Steps: 4,
		BucketBytes: []int{8192},
		Policies: []string{
			"uniform(dense)",
			"mixed(big=a2sgd, small=dense, threshold=8KiB)",
		},
	}
	var buf bytes.Buffer
	points, err := Sweep(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	uni, mix := points[0], points[1]
	if mix.Policy != "mixed(big=a2sgd, small=dense, threshold=8KiB)" {
		t.Errorf("policy name %q", mix.Policy)
	}
	if !strings.Contains(mix.Composition, "a2sgd") || !strings.Contains(mix.Composition, "dense") {
		t.Errorf("mixed composition %q", mix.Composition)
	}
	// Compressing the big buckets must cut the per-worker payload.
	if mix.PayloadBytes >= uni.PayloadBytes {
		t.Errorf("mixed payload %d not below uniform dense %d", mix.PayloadBytes, uni.PayloadBytes)
	}
	for _, p := range points {
		if p.ModelOverlapSec > p.ModelSerialSec {
			t.Errorf("%s: overlap law %v exceeds serial %v", p.Policy, p.ModelOverlapSec, p.ModelSerialSec)
		}
		if p.ModelSerialSec <= 0 {
			t.Errorf("%s: non-positive modelled time", p.Policy)
		}
	}
	if !strings.Contains(buf.String(), "model-overlap") {
		t.Error("missing table header")
	}
	// Deterministic per seed: a second sweep reproduces the metrics.
	again, err := Sweep(io.Discard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if points[i].FinalMetric != again[i].FinalMetric {
			t.Errorf("%s: metric %v vs %v across reruns", points[i].Policy, points[i].FinalMetric, again[i].FinalMetric)
		}
	}
}

// TestSweepRejectsAuto: the sweep's cells are per-bucket policy runs, so
// "auto" — which plans its own schedule — is refused with the registry's
// error, and before any cell trains: the unknown family the valid first
// policy would have hit first never surfaces.
func TestSweepRejectsAuto(t *testing.T) {
	points, err := Sweep(io.Discard, SweepConfig{
		Family: "no-such-family", Workers: 2, Epochs: 1, Steps: 1,
		Policies: []string{"a2sgd", "auto"},
	})
	if err == nil || !strings.Contains(err.Error(), `"auto" plans a whole schedule, it is not a per-bucket policy`) {
		t.Fatalf("Sweep(auto) error = %v, want the per-bucket policy rejection", err)
	}
	if points != nil {
		t.Errorf("Sweep(auto) returned %d points", len(points))
	}
}

// TestAutoSweepPlansNonUniform pins a cell where the planner's per-bucket
// greedy assignment beats every uniform plan: CI's own smoke setting
// (`a2sgdbench -experiment auto -workers 8 -scale 10`) plans vgg16 on IB100
// as dense×2 | a2sgd×1, cheaper than the best uniform configuration.
func TestAutoSweepPlansNonUniform(t *testing.T) {
	rep, err := AutoSweep(nil, AutoSweepConfig{
		Families: []string{"vgg16"}, Workers: 8, ParamScale: 10, Pricers: []netsim.Pricer{netsim.IB100()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := rep.Points[0]; p.Composition != "dense×2 | a2sgd×1" || !(p.AutoSec < p.BestSec) {
		t.Errorf("vgg16 on %s: auto %s at %.2fµs, best uniform %s at %.2fµs; want dense×2 | a2sgd×1 strictly cheaper",
			p.Fabric, p.Composition, p.AutoSec*1e6, p.BestSpec, p.BestSec*1e6)
	}
}

func TestNewAlgoUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newAlgo("nope", 10, 1)
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	table(&buf, []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	out := buf.String()
	if !strings.Contains(out, "---") || !strings.Contains(out, "333") {
		t.Errorf("table output:\n%s", out)
	}
	buf.Reset()
	csvOut(&buf, []string{"x", "y"}, [][]string{{"1", "2"}})
	if buf.String() != "x,y\n1,2\n" {
		t.Errorf("csv output: %q", buf.String())
	}
}

func TestAblationRunner(t *testing.T) {
	var buf bytes.Buffer
	res, err := Ablation(&buf, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationResult{}
	for _, r := range res {
		byName[r.Variant] = r
	}
	// The paper's design rationale, quantitatively:
	// full A2SGD must beat the no-error-feedback and one-mean ablations.
	if byName["a2sgd"].FinalMetric < byName["a2sgd-noef"].FinalMetric-0.05 {
		t.Errorf("a2sgd %.3f should not trail noef %.3f",
			byName["a2sgd"].FinalMetric, byName["a2sgd-noef"].FinalMetric)
	}
	// Allgather variant must match the allreduce variant's convergence.
	if d := byName["a2sgd"].FinalMetric - byName["a2sgd-allgather"].FinalMetric; d > 0.1 || d < -0.1 {
		t.Errorf("allgather variant diverged: %.3f vs %.3f",
			byName["a2sgd-allgather"].FinalMetric, byName["a2sgd"].FinalMetric)
	}
	// Periodic must cut measured traffic ~4x below plain a2sgd.
	if byName["a2sgd-every4"].BytesPerStep > byName["a2sgd"].BytesPerStep/2 {
		t.Errorf("periodic traffic %.0f not reduced vs %.0f",
			byName["a2sgd-every4"].BytesPerStep, byName["a2sgd"].BytesPerStep)
	}
	if !strings.Contains(buf.String(), "Ablations") {
		t.Error("missing header")
	}
}

func TestBucketSweepQuick(t *testing.T) {
	points, err := Sweep(io.Discard, SweepConfig{
		Workers: 2, Epochs: 1, Steps: 4,
		BucketBytes: []int{0, 8192},
		Policies:    []string{"dense", "a2sgd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points %d, want 4", len(points))
	}
	for _, p := range points {
		if p.BucketBytes == 0 && p.Buckets != 1 {
			t.Errorf("%s: whole-model run has %d buckets", p.Policy, p.Buckets)
		}
		if p.BucketBytes == 8192 && p.Buckets < 4 {
			t.Errorf("%s: 8KiB budget gave %d buckets, want >=4", p.Policy, p.Buckets)
		}
		if p.ModelOverlapSec > p.ModelSerialSec {
			t.Errorf("%s/%dB: overlap price %.3e exceeds serial %.3e",
				p.Policy, p.BucketBytes, p.ModelOverlapSec, p.ModelSerialSec)
		}
		if p.HiddenSyncSec < 0 {
			t.Errorf("%s/%dB: negative hidden sync %.3e", p.Policy, p.BucketBytes, p.HiddenSyncSec)
		}
		if p.StepSecSync <= 0 || p.StepSecOverlap <= 0 {
			t.Errorf("%s/%dB: non-positive step times %+v", p.Policy, p.BucketBytes, p)
		}
	}
	// The paper's algorithm must hide sync behind encode for some budget.
	hidden := false
	for _, p := range points {
		if p.Policy == "uniform(a2sgd)" && p.Buckets > 1 && p.HiddenSyncSec > 0 {
			hidden = true
		}
	}
	if !hidden {
		t.Error("a2sgd with >1 bucket hides no sync time")
	}
}

func TestHierarchySweepQuick(t *testing.T) {
	points, err := Sweep(io.Discard, SweepConfig{
		Workers: 4, Epochs: 1, Steps: 4,
		RanksPerNode: []int{1, 2},
		BucketBytes:  []int{0},
		Policies:     []string{"dense", "a2sgd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points %d, want 4", len(points))
	}
	byAlgo := map[string]map[int]SweepPoint{}
	for _, p := range points {
		if p.SyncFlatSec <= 0 || p.SyncHierSec <= 0 {
			t.Errorf("%s rpn=%d: non-positive sync prices %+v", p.Policy, p.RanksPerNode, p)
		}
		if byAlgo[p.Policy] == nil {
			byAlgo[p.Policy] = map[int]SweepPoint{}
		}
		byAlgo[p.Policy][p.RanksPerNode] = p
	}
	for algo, byRPN := range byAlgo {
		flat, hier := byRPN[1], byRPN[2]
		// rpn=1 must degenerate: the two-tier law prices it as flat.
		if flat.SyncHierSec != flat.SyncFlatSec {
			t.Errorf("%s: rpn=1 two-tier sync %.3e != flat sync %.3e",
				algo, flat.SyncHierSec, flat.SyncFlatSec)
		}
		// Wider nodes must not cost more under the two-tier law.
		if hier.SyncHierSec > hier.SyncFlatSec {
			t.Errorf("%s: rpn=2 two-tier sync %.3e exceeds flat %.3e",
				algo, hier.SyncHierSec, hier.SyncFlatSec)
		}
		// Hierarchical runs converge equivalently to flat ones.
		if d := flat.FinalMetric - hier.FinalMetric; d > 0.05 || d < -0.05 {
			t.Errorf("%s: flat metric %v vs hierarchical %v", algo, flat.FinalMetric, hier.FinalMetric)
		}
	}
}

// TestSweepPricesEachBucketUnderItsOwnKind: where a mixed policy meets the
// topology axis, bucket b's collective is priced under bucket b's exchange
// kind (top-k buckets allgather-v, dense buckets allreduce) — not under the
// run's aggregate kind, which is only bucket 0's.
func TestSweepPricesEachBucketUnderItsOwnKind(t *testing.T) {
	const policy = "mixed(big=topk, small=dense, threshold=8KiB)"
	points, err := Sweep(io.Discard, SweepConfig{
		Workers: 4, Epochs: 1, Steps: 2,
		RanksPerNode: []int{2}, BucketBytes: []int{8192}, Policies: []string{policy},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := cluster.Lower("fnn3", policy, 8192, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	two, kinds := netsim.TwoTierIB100(2), map[netsim.ExchangeKind]bool{}
	var want float64
	for b, spec := range sched.Specs {
		n := sched.Bounds[b+1] - sched.Bounds[b]
		a, err := compress.Build(spec, compress.DefaultOptions(n))
		if err != nil {
			t.Fatal(err)
		}
		kinds[a.ExchangeKind()] = true
		want += two.SyncTime(a.ExchangeKind(), a.PayloadBytes(n), 4)
	}
	if len(kinds) < 2 {
		t.Fatalf("policy assigned one exchange kind (%s): nothing to tell apart", points[0].Composition)
	}
	if got := points[0].SyncHierSec; got != want {
		t.Errorf("sync-hier %.6e, want the per-bucket-kind sum %.6e", got, want)
	}
}

func TestSpecWithDensityLowersThroughWrappers(t *testing.T) {
	cases := map[string]string{
		"topk":                        "topk(density=0.05)",
		"topk(density=0.01)":          "topk(density=0.01)", // explicit wins
		"dense":                       "dense",
		"a2sgd":                       "a2sgd",
		"periodic(topk, interval=2)":  "periodic(topk(density=0.05), interval=2)",
		"periodic(a2sgd, interval=4)": "periodic(a2sgd, interval=4)",
	}
	for in, want := range cases {
		if got := specWithDensity(in, 0.05); got != want {
			t.Errorf("specWithDensity(%q) = %q, want %q", in, got, want)
		}
	}
	if got := specWithDensity("topk", 0); got != "topk" {
		t.Errorf("zero override changed spec: %q", got)
	}
}

// TestChaosRowsNamedOnce: the fault matrix is one table, and every row of
// the chaos, elastic and straggler matrices it replaced appears in it exactly
// once, with a scenario the grammar accepts.
func TestChaosRowsNamedOnce(t *testing.T) {
	want := []string{
		"delay-ab", "jitter", "bandwidth", "dup", "reorder", "loss", "straggler",
		"flap-retry", "partition-retry", "hier-inter-delay", "crash", "stall",
		"crash-shrink", "preempt-rejoin", "drain-resume",
		"fault-free", "straggler-unmitigated", "straggler-backup", "degrade-replan",
	}
	rows := chaosRows()
	seen := map[string]int{}
	for _, r := range rows {
		seen[r.name]++
		if _, err := faultnet.Parse(r.scenario); err != nil {
			t.Errorf("%s: scenario %q: %v", r.name, r.scenario, err)
		}
	}
	for _, name := range want {
		if seen[name] != 1 {
			t.Errorf("row %s appears %d times, want once", name, seen[name])
		}
	}
	if len(rows) != len(want) {
		t.Errorf("%d rows, want %d", len(rows), len(want))
	}
}

func TestElasticChaosMatrix(t *testing.T) {
	var rows []chaosRow
	for _, r := range chaosRows() {
		if r.shape == elasticShape {
			rows = append(rows, r)
		}
	}
	var buf bytes.Buffer
	rep, err := runChaos(&buf, ChaosConfig{Seed: 11}, rows)
	if err != nil {
		t.Fatalf("elastic rows: %v\n%s", err, buf.String())
	}
	if len(rep.Cases) != 3 || rep.Failures != 0 {
		t.Fatalf("expected 3 passing cases, got %d with %d failures\n%s",
			len(rep.Cases), rep.Failures, buf.String())
	}
	for _, cse := range rep.Cases {
		if !cse.Bitwise {
			t.Errorf("%s: elastic trajectory diverged from its fixed-world reference", cse.Name)
		}
	}
}

// TestDriftReplannerRecordsFirstNonModelSchedule: the drift leg prices the
// schedule Replan first builds on a fabric other than the model — the
// measured-fabric replan — not the pre-drift schedules built on the model,
// and not a later re-replan.
func TestDriftReplannerRecordsFirstNonModelSchedule(t *testing.T) {
	segs, _, err := familySegments("fnn3", 0)
	if err != nil {
		t.Fatal(err)
	}
	model := netsim.IB100()
	measured := netsim.Measured("measured", 50e-6, 1e-9)
	dr := &driftReplanner{family: "fnn3", segs: segs, model: model}
	if _, err := dr.replan(4, model); err != nil {
		t.Fatal(err)
	}
	if dr.replanned != nil {
		t.Fatalf("a schedule built on the model was recorded as the replan (on %s)", dr.fabric.Name)
	}
	first, err := dr.replan(4, measured)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dr.replan(3, netsim.TCP10G()); err != nil {
		t.Fatal(err)
	}
	if dr.replanned != first || dr.fabric != measured {
		t.Errorf("recorded the schedule built on %s, want the first one off the model (%s)", dr.fabric.Name, measured.Name)
	}
	if dr.replanned.PricedOn != measured.Label() {
		t.Errorf("recorded schedule priced on %q, want %q", dr.replanned.PricedOn, measured.Label())
	}
}
