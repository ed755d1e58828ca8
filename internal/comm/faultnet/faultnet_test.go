package faultnet

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"a2sgd/internal/comm"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"delay(link=0-1, alpha=200µs, beta=1ns/B)",
		"delay(link=*, alpha=50µs, jitter=200µs)",
		"seed(42) bw(link=2-*, mbps=400)",
		"loss(link=*, p=0.05, resend=2ms) dup(link=*, p=0.2)",
		"reorder(link=0-1, p=0.3) straggler(rank=2, x=3)",
		"degrade(rank=2, after=4, factor=3, ramp=4)",
		"straggler(rank=1, x=2) degrade(rank=3, after=0, factor=8, ramp=0)",
		"deadline(500ms) crash(rank=3, step=5)",
		"deadline(400ms) stall(rank=1, step=2)",
		"retry(attempts=6, backoff=2ms, max=20ms) flap(rank=1, period=40ms, duty=0.8)",
		"partition(groups=0-1|2-3, after=30ms, dur=25ms)",
	}
	for _, src := range cases {
		sc, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		sc2, err := Parse(sc.String())
		if err != nil {
			t.Fatalf("reparse(%q → %q): %v", src, sc.String(), err)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Errorf("round trip diverged:\n src %q\n 1st %+v\n 2nd %+v", src, sc, sc2)
		}
	}
}

func TestParseAcceptsIssueExample(t *testing.T) {
	sc, err := Parse("delay(link=0-1,alpha=200us,beta=1ns/B) straggler(rank=2,x3) crash(rank=3,step=5)")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Rules) != 3 {
		t.Fatalf("want 3 rules, got %+v", sc.Rules)
	}
	if sc.Rules[1].Factor != 3 {
		t.Errorf("bare x3 factor: got %v", sc.Rules[1].Factor)
	}
	if sc.Recoverable() {
		t.Error("crash scenario must not be recoverable")
	}
	if sc.Deadline == 0 {
		t.Error("crash scenario must default a deadline")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"delay",                               // no parens
		"wobble(link=*)",                      // unknown rule
		"delay(link=*)",                       // no delay magnitude
		"delay(link=*, alpha=xx)",             // bad duration
		"delay(link=*, beta=1ns)",             // beta without /B
		"dup(link=*, p=1.5)",                  // p out of range
		"crash(rank=1)",                       // missing step
		"straggler(rank=1)",                   // missing factor
		"degrade(rank=1)",                     // missing factor
		"degrade(rank=1, factor=1)",           // factor must exceed 1
		"degrade(rank=1, factor=3, ramp=-2)",  // negative ramp
		"degrade(factor=3)",                   // missing rank
		"partition(groups=0-1)",               // one side
		"flap(rank=0, duty=1.5)",              // duty out of range
		"delay(link=*, alpha=1ms, alpha=2ms)", // duplicate key
		"delay(link=*, alpha=1ms, bogus=2)",   // unknown key
		"loss(link=*)",                        // p defaults to 0: never fires
		"dup(link=*, p=0)",                    // never fires
		"reorder(link=0-1)",                   // never fires
		"partition(groups=0-1|1-2)",           // rank 1 on two sides
		"partition(groups=0-0|1)",             // rank 0 listed twice
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// TestCheckWorld: a rule naming a rank outside the world — its rank, a
// link endpoint or a partition member — is reported, naming the rule;
// wildcards and in-world ranks are not.
func TestCheckWorld(t *testing.T) {
	for _, c := range []struct {
		src   string
		world int
		want  string // "" = accepted
	}{
		{"crash(rank=5, step=1)", 2, "crash(rank=5, step=1) names rank 5, outside a 2-rank world"},
		{"crash(rank=1, step=1)", 2, ""},
		{"straggler(rank=1, x2)", 1, "straggler(rank=1, x=2) names rank 1"},
		{"degrade(rank=3, factor=2)", 3, "degrade(rank=3,"},
		{"flap(rank=2)", 2, "flap(rank=2,"},
		{"delay(link=0-3, alpha=1ms)", 3, "delay(link=0-3, alpha=1ms) names rank 3"},
		{"bw(link=2-*, mbps=10)", 2, "bw(link=2-*, mbps=10) names rank 2"},
		{"loss(link=*, p=0.1) dup(link=0-*, p=0.5)", 1, ""},
		{"partition(groups=0-1|2-3)", 3, "partition(groups=0-1|2-3, after=0s, dur=20ms) names rank 3"},
		{"partition(groups=0-1|2-3)", 4, ""},
		{"deadline(2s) seed(3) retry(attempts=2)", 1, ""},
	} {
		err := MustParse(c.src).CheckWorld(c.world)
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q at world %d: %v, want %q", c.src, c.world, err, c.want)
		}
	}
}

func TestLinkMatching(t *testing.T) {
	l01 := Link{A: 0, B: 1}
	if !l01.Matches(0, 1) || !l01.Matches(1, 0) {
		t.Error("link 0-1 must match both directions")
	}
	if l01.Matches(0, 2) {
		t.Error("link 0-1 must not match 0-2")
	}
	l2any := Link{A: 2, B: -1}
	if !l2any.Matches(2, 0) || !l2any.Matches(1, 2) {
		t.Error("link 2-* must match every link touching rank 2")
	}
	if l2any.Matches(0, 1) {
		t.Error("link 2-* must not match 0-1")
	}
	if !AnyLink.Matches(3, 4) {
		t.Error("link * must match everything")
	}
}

func TestSendPlanDeterministic(t *testing.T) {
	sc := MustParse("seed(7) delay(link=*, alpha=10µs, jitter=100µs) loss(link=*, p=0.3, resend=1ms) dup(link=*, p=0.3) reorder(link=*, p=0.3)")
	m1 := NewMesh(sc, 4, nil)
	m2 := NewMesh(sc, 4, nil)
	for i := 0; i < 200; i++ {
		d1, dup1, hold1 := m1.sendPlan(0, 1, 1024)
		d2, dup2, hold2 := m2.sendPlan(0, 1, 1024)
		if d1 != d2 || dup1 != dup2 || hold1 != hold2 {
			t.Fatalf("draw %d diverged: (%v %v %v) vs (%v %v %v)", i, d1, dup1, hold1, d2, dup2, hold2)
		}
	}
	// Streams must differ per link.
	d01, _, _ := m1.sendPlan(0, 1, 1024)
	d23, _, _ := m1.sendPlan(2, 3, 1024)
	if d01 == d23 {
		t.Log("per-link draws coincided once (possible but unlikely); not failing")
	}
}

// ringBody runs a few allreduces and an allgatherv and checks the values, the
// workload the fault-equivalence tests reuse.
func ringBody(steps, n int) func(c *comm.Communicator) error {
	return func(c *comm.Communicator) error {
		p, r := c.Size(), c.Rank()
		for s := 0; s < steps; s++ {
			v := make([]float32, n)
			for i := range v {
				v[i] = float32(r + s + i)
			}
			if err := c.AllreduceMean(v, comm.AlgoAuto); err != nil {
				return err
			}
			for i := range v {
				want := float32(s+i) + float32(p-1)/2
				if math.Abs(float64(v[i]-want)) > 1e-5 {
					return fmt.Errorf("rank %d step %d: v[%d]=%v want %v", r, s, i, v[i], want)
				}
			}
			in := make([]float32, r+1) // variable length per rank
			for i := range in {
				in[i] = float32(r)
			}
			out, lens, err := c.AllgatherV(in)
			if err != nil {
				return err
			}
			for i, l := range lens {
				if l != i+1 {
					return fmt.Errorf("rank %d: lens[%d]=%d", r, i, l)
				}
			}
			if len(out) != p*(p+1)/2 {
				return fmt.Errorf("rank %d: out len %d", r, len(out))
			}
		}
		return nil
	}
}

func TestRecoverableFaultsPreserveCollectives(t *testing.T) {
	scenarios := []string{
		"",
		"delay(link=*, alpha=20µs, jitter=30µs)",
		"dup(link=*, p=0.4)",
		"reorder(link=*, p=0.4)",
		"dup(link=*, p=0.3) reorder(link=*, p=0.3) loss(link=*, p=0.1, resend=100µs)",
		"straggler(rank=1, x2)",
		"degrade(rank=1, after=2, factor=3, ramp=2)",
		"flap(rank=1, period=20ms, duty=0.7)",
		"partition(groups=0-1|2-3, after=5ms, dur=10ms)",
	}
	for _, src := range scenarios {
		src := src
		t.Run(strings.SplitN(src+"(", "(", 2)[0], func(t *testing.T) {
			t.Parallel()
			sc := MustParse(src)
			if !sc.Recoverable() {
				t.Fatalf("scenario %q should be recoverable", src)
			}
			if err := GroupRunner(sc, false)(4, ringBody(6, 512)); err != nil {
				t.Fatalf("scenario %q: %v", src, err)
			}
		})
	}
}

func TestRecoverableFaultsOverTCP(t *testing.T) {
	sc := MustParse("dup(link=*, p=0.3) reorder(link=*, p=0.3) delay(link=*, alpha=10µs)")
	if err := GroupRunner(sc, true)(3, ringBody(4, 256)); err != nil {
		t.Fatal(err)
	}
}

func TestDegradeFactorRamp(t *testing.T) {
	r := Rule{Kind: RuleDegrade, Rank: 1, Step: 4, Factor: 5, Ramp: 4}
	for _, tc := range []struct {
		step int
		want float64
	}{
		{0, 1}, {3, 1}, // before the onset
		{4, 2}, {5, 3}, {6, 4}, // linear ramp: 1 + 4*(k/4)
		{7, 5}, {20, 5}, // held at full factor
	} {
		if got := r.degradeFactor(tc.step); got != tc.want {
			t.Errorf("degradeFactor(step=%d) = %v, want %v", tc.step, got, tc.want)
		}
	}
	// Zero ramp is a step function; a negative onset means the ramp began in
	// an earlier elastic segment and may already be complete.
	r2 := Rule{Kind: RuleDegrade, Rank: 1, Step: -10, Factor: 3, Ramp: 4}
	if got := r2.degradeFactor(0); got != 3 {
		t.Errorf("rebased degrade at step 0 = %v, want full factor 3", got)
	}
	r3 := Rule{Kind: RuleDegrade, Rank: 1, Step: 2, Factor: 3, Ramp: 0}
	if got := r3.degradeFactor(2); got != 3 {
		t.Errorf("step-function degrade = %v, want 3", got)
	}
}

func TestDegradeSlowsSendsAfterOnset(t *testing.T) {
	sc := MustParse("degrade(rank=1, after=2, factor=8, ramp=0)")
	m := NewMesh(sc, 3, nil)
	m.steps[1].Store(1) // current 0-based step 0
	before, _, _ := m.sendPlan(0, 1, 1024)
	m.steps[1].Store(3) // current step 2: the degrade fires
	after, _, _ := m.sendPlan(0, 1, 1024)
	if before != 0 {
		t.Errorf("pre-onset delay %v, want none", before)
	}
	if after < 8*stragglerFloor {
		t.Errorf("post-onset delay %v, want >= 8x the straggler floor", after)
	}
	if unrelated, _, _ := m.sendPlan(0, 2, 1024); unrelated != 0 {
		t.Errorf("link not touching the degraded rank delayed by %v", unrelated)
	}
}

func TestBackupMasksSlowdown(t *testing.T) {
	sc := MustParse("straggler(rank=1, x4) degrade(rank=2, after=0, factor=4, ramp=0)")
	sc.Backup = []int{1, 2}
	m := NewMesh(sc, 3, nil)
	m.steps[1].Store(1)
	m.steps[2].Store(1)
	for _, dst := range []int{1, 2} {
		if d, _, _ := m.sendPlan(0, dst, 1024); d != 0 {
			t.Errorf("backed-up rank %d still slowed by %v", dst, d)
		}
	}
	// Without the backup the same link is slow.
	sc2 := MustParse("straggler(rank=1, x4)")
	m2 := NewMesh(sc2, 3, nil)
	if d, _, _ := m2.sendPlan(0, 1, 1024); d < 4*stragglerFloor {
		t.Errorf("un-backed straggler delay %v, want >= 4x floor", d)
	}
}

// stepBody advances the step counter then allreduces, like one training step.
func stepBody(steps, n int) func(c *comm.Communicator) error {
	return func(c *comm.Communicator) error {
		v := make([]float32, n)
		for s := 0; s < steps; s++ {
			c.AdvanceStep()
			for i := range v {
				v[i] = 1
			}
			if err := c.AllreduceMean(v, comm.AlgoAuto); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestCrashFailsFastWithPeerError(t *testing.T) {
	sc := MustParse("deadline(1s) crash(rank=1, step=2)")
	start := time.Now()
	err := GroupRunner(sc, false)(3, stepBody(8, 64))
	if err == nil {
		t.Fatal("crash scenario completed without error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("crash took %v to surface (deadline 1s)", elapsed)
	}
	var pe *comm.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("error chain has no *comm.PeerError: %v", err)
	}
	if !strings.Contains(err.Error(), "rank") {
		t.Fatalf("joined error does not name a rank: %v", err)
	}
}

func TestCrashOverTCPFailsFast(t *testing.T) {
	sc := MustParse("deadline(1s) crash(rank=1, step=1)")
	start := time.Now()
	err := GroupRunner(sc, true)(3, stepBody(6, 64))
	if err == nil {
		t.Fatal("TCP crash scenario completed without error")
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("TCP crash took %v to surface", elapsed)
	}
}

func TestStallFailsWithinDeadline(t *testing.T) {
	sc := MustParse("deadline(300ms) stall(rank=2, step=1)")
	start := time.Now()
	err := GroupRunner(sc, false)(3, stepBody(6, 64))
	if err == nil {
		t.Fatal("stall scenario completed without error")
	}
	// The first blocked collective must escape within ~one deadline, plus
	// teardown slack.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stall took %v to surface (deadline 300ms)", elapsed)
	}
	var pe *comm.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("error chain has no *comm.PeerError: %v", err)
	}
}

func TestInactiveScenarioUsesBareFabric(t *testing.T) {
	sc := MustParse("")
	if sc.active() || (*Scenario)(nil).active() {
		t.Fatal("empty and nil scenarios must be inactive")
	}
	for _, s := range []*Scenario{sc, nil} {
		for _, tcp := range []bool{false, true} {
			if err := GroupRunner(s, tcp)(2, ringBody(2, 128)); err != nil {
				t.Fatalf("scenario %v tcp=%v: %v", s, tcp, err)
			}
		}
	}
}

func TestTransientErrorRetriedByCommunicator(t *testing.T) {
	// flapBase fails the first two sends per (to,tag) with a transient
	// error; the communicator's retry policy must absorb them.
	f := comm.NewInprocFabric(2)
	defer f.Shutdown()
	errs := RunPair(t, f, 2)
	if errs != nil {
		t.Fatal(errs)
	}
}

// RunPair exercises retry against a deterministic failing wrapper.
func RunPair(t *testing.T, f *comm.InprocFabric, failures int) error {
	t.Helper()
	done := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) {
			base := f.Transport(r)
			c := comm.NewCommunicator(&flakyTransport{Transport: base, failEvery: failures})
			c.SetRetry(comm.RetryPolicy{Attempts: failures + 2, Backoff: 100 * time.Microsecond})
			v := []float32{float32(r + 1)}
			if err := c.AllreduceSum(v, comm.AlgoRing); err != nil {
				done <- err
				return
			}
			if v[0] != 3 {
				done <- fmt.Errorf("rank %d: sum %v want 3", r, v[0])
				return
			}
			done <- nil
		}(r)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			return err
		}
	}
	return nil
}

// flakyTransport fails the first failEvery attempts of every send with a
// transient PeerError, then lets it through.
type flakyTransport struct {
	comm.Transport
	failEvery int
	calls     int
}

func (t *flakyTransport) Send(to, tag int, data []float32) error {
	t.calls++
	if t.calls%(t.failEvery+1) != 0 {
		return &comm.PeerError{Rank: to, Op: "send", Transient: true, Err: errLinkDown}
	}
	return t.Transport.Send(to, tag, data)
}

// TestBetaKeepsItsValue: a per-byte time is a number with a unit, not a
// whole-nanosecond duration — sub-nanosecond βs (any link faster than
// 8 Gbit/s) parse, fractional ones keep their fraction, and a bw rate prints
// as the decimal that parses back to the same β.
func TestBetaKeepsItsValue(t *testing.T) {
	for _, c := range []struct {
		src   string
		beta  float64
		canon string
	}{
		{"delay(link=*, beta=0.25ns/B)", 0.25e-9, "delay(link=*, beta=0.25ns/B)"},
		{"delay(link=*, beta=1.5ns/B)", 1.5e-9, "delay(link=*, beta=1.5ns/B)"},
		{"delay(link=0-1, alpha=200us, beta=1ns/B)", 1e-9, "delay(link=0-1, alpha=200µs, beta=1ns/B)"},
		{"delay(link=*, beta=2us/B)", 2e-6, "delay(link=*, beta=2000ns/B)"},
		{"bw(link=*, gbps=100)", 1e-11, "bw(link=*, mbps=100000)"},
	} {
		sc, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := sc.Rules[0].Beta; got != c.beta {
			t.Errorf("Parse(%q): beta %v, want %v", c.src, got, c.beta)
		}
		if got := sc.String(); got != c.canon {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.canon)
		}
	}
}

// FuzzScenarioRoundTrip: whatever Parse accepts, its canonical form parses
// back to the same scenario — rules, seed, deadline and retry — and prints
// the same text again.
func FuzzScenarioRoundTrip(f *testing.F) {
	for _, seed := range []string{
		// README and the CI file.
		"delay(link=0-1, alpha=200us, beta=1ns/B) straggler(rank=2, x3) crash(rank=3, step=5)",
		"delay(link=0-1, alpha=200us, beta=1ns/B, jitter=50us) bw(link=*, mbps=400)",
		"deadline(2s) preempt(rank=3, step=3)",
		"degrade(rank=2, after=0, factor=8, ramp=0) stall(rank=3, step=5)",
		"seed(11) delay(link=*, alpha=50us, jitter=50us) straggler(rank=2, x2)",
		// bench.Chaos's scenario table.
		"delay(link=*, alpha=300us, beta=4ns/B)",
		"delay(link=*, alpha=50us, jitter=100us)",
		"bw(link=*, mbps=250)",
		"dup(link=*, p=0.3) reorder(link=*, p=0.3)",
		"loss(link=*, p=0.1, resend=500us)",
		"straggler(rank=1, x2) flap(rank=1, period=30ms, duty=0.7)",
		"partition(groups=0-1|2-3, after=10ms, dur=15ms)",
		"delay(link=0-2, alpha=200us, beta=2ns/B)",
		"deadline(500ms) crash(rank=3, step=2)",
		"deadline(400ms) stall(rank=2, step=2)",
		"retry(attempts=6, backoff=2ms, max=20ms)",
		// Sub-nanosecond, fractional and rate-derived βs.
		"delay(link=*, beta=0.25ns/B)",
		"delay(link=*, beta=1.5ns/B)",
		"bw(link=*, gbps=100)",
		// Rejected: a rank on both sides of a partition.
		"partition(groups=0-1|1-2, after=10ms, dur=15ms)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse(src)
		if err != nil {
			return
		}
		canon := sc.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its canonical form %q does not parse: %v", src, canon, err)
		}
		if !reflect.DeepEqual(sc.Rules, again.Rules) || sc.Seed != again.Seed ||
			sc.Deadline != again.Deadline || sc.Retry != again.Retry {
			t.Fatalf("Parse(%q) = %+v, but its canonical form %q parses to %+v", src, sc, canon, again)
		}
		if got := again.String(); got != canon {
			t.Fatalf("Parse(%q) prints %q, which re-prints as %q", src, canon, got)
		}
	})
}
