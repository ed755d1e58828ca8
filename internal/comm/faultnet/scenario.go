package faultnet

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"

	"a2sgd/internal/comm"
)

// Scenario grammar. A scenario is a whitespace-separated list of rules,
// each `name(key=value, ...)`:
//
//	delay(link=0-1, alpha=200us, beta=1ns/B, jitter=50us)
//	bw(link=*, mbps=400)                     // bandwidth cap as a beta term
//	loss(link=*, p=0.05, resend=2ms)         // loss-driven resend delay
//	dup(link=*, p=0.2)                       // legal duplicate delivery
//	reorder(link=*, p=0.3)                   // legal cross-tag reordering
//	straggler(rank=2, x3)                    // multiply delays touching rank
//	degrade(rank=2, after=4, factor=3, ramp=4) // gradual slowdown of rank's links
//	crash(rank=3, step=5)                    // one-shot rank failure
//	stall(rank=3, step=5)                    // rank goes dark, no error
//	preempt(rank=3, step=5)                  // crash that may rejoin (elastic)
//	flap(rank=1, period=40ms, duty=0.8)      // link up duty fraction of period
//	partition(groups=0-1|2-3, after=30ms, dur=25ms)
//	seed(42) deadline(500ms) retry(attempts=10, backoff=1ms, max=50ms)
//
// crash, stall and preempt fire when the rank starts step K: at the top of
// the training loop's boundary K, before that boundary's drain poll and
// snapshot. A rule whose step is a checkpoint boundary therefore stops the
// rank before that checkpoint is taken, and an elastic job resumes from the
// previous one. A segment that pauses at StopStep K runs no step K, so a rule
// at K fires in the segment that resumes there.
//
// Links are undirected rank pairs: `0-1`, `2-*` (any link touching rank 2)
// or `*` (every link). A partition lists each rank on one side only, and a
// loss/dup/reorder probability p lies in (0, 1]; CheckWorld rejects a rule
// naming a rank outside the run's world. Durations use Go syntax (200us,
// 1.5ms) and are never negative; beta is a per-byte time written as a
// decimal number and one unit (`1ns/B`, `0.25ns/B`, `1.5us/B`). String()
// renders the canonical form and Parse round-trips it exactly: rates and
// per-byte times print as the shortest decimal that parses back to the same
// float64.

// RuleKind discriminates scenario rules.
type RuleKind int

// Scenario rule kinds.
const (
	RuleDelay RuleKind = iota
	RuleBandwidth
	RuleLoss
	RuleDup
	RuleReorder
	RuleStraggler
	RuleCrash
	RuleStall
	RuleFlap
	RulePartition
	// RulePreempt is a crash the orchestrator announced in advance: at the
	// transport level it behaves exactly like RuleCrash (the rank's transport
	// is killed, peers observe a *comm.PeerError), but the elastic supervisor
	// reads the kind as "this rank will come back" and re-admits it at the
	// next checkpoint boundary instead of shrinking permanently.
	RulePreempt
	// RuleDegrade is the gradual sibling of RuleStraggler: from 0-based step
	// After the slowdown of every link touching Rank ramps linearly from 1x
	// to Factor over Ramp steps, then holds. Stragglers model a host that is
	// simply slow; degrades model a fabric that is getting worse — the
	// realistic stimulus for drift-triggered re-planning.
	RuleDegrade
)

var ruleNames = map[RuleKind]string{
	RuleDelay: "delay", RuleBandwidth: "bw", RuleLoss: "loss", RuleDup: "dup",
	RuleReorder: "reorder", RuleStraggler: "straggler", RuleCrash: "crash",
	RuleStall: "stall", RuleFlap: "flap", RulePartition: "partition",
	RulePreempt: "preempt", RuleDegrade: "degrade",
}

// Link selects the undirected rank pairs a rule applies to; -1 is the
// wildcard on either end.
type Link struct{ A, B int }

// AnyLink matches every link.
var AnyLink = Link{A: -1, B: -1}

// Matches reports whether the (src, dst) pair falls under the selector,
// in either direction.
func (l Link) Matches(src, dst int) bool {
	one := func(a, b int) bool {
		return (l.A == -1 || l.A == a) && (l.B == -1 || l.B == b)
	}
	return one(src, dst) || one(dst, src)
}

func (l Link) String() string {
	end := func(r int) string {
		if r < 0 {
			return "*"
		}
		return strconv.Itoa(r)
	}
	if l.A < 0 && l.B < 0 {
		return "*"
	}
	return end(l.A) + "-" + end(l.B)
}

// Rule is one fault clause. Only the fields its Kind names are meaningful.
type Rule struct {
	Kind RuleKind
	Link Link // delay/bw/loss/dup/reorder
	Rank int  // straggler/degrade/crash/stall/preempt/flap
	// Step is the 0-based global step a crash/stall/preempt fires at, and
	// the step a degrade's ramp starts at (its after= key).
	Step int

	Alpha  time.Duration // delay: per-message latency
	Beta   float64       // delay/bw: seconds per payload byte
	Jitter time.Duration // delay: uniform [0, Jitter) addend

	P      float64       // loss/dup/reorder probability
	Resend time.Duration // loss: delay modelling the retransmit

	Factor float64 // straggler/degrade multiplier
	Ramp   int     // degrade: steps over which the factor ramps to full

	Period time.Duration // flap cycle length
	Duty   float64       // flap fraction of the period the link is UP

	After, Dur time.Duration // partition window (from mesh start)
	Groups     [][]int       // partition sides
}

// Scenario is a parsed fault schedule plus the failure-contract knobs the
// runners install on every communicator.
type Scenario struct {
	// Seed drives every per-link random stream; two runs of the same
	// scenario draw identical fault sequences.
	Seed uint64
	// Deadline is the I/O timeout installed on the underlying transport
	// (tcpnet Config.IOTimeout / InprocFabric.SetIOTimeout). Zero with
	// stall rules present defaults to 2s so a dark rank cannot hang the run.
	Deadline time.Duration
	// Retry is the comm.RetryPolicy installed on every communicator. Zero
	// with flap/partition rules present defaults to comm.DefaultRetry().
	Retry comm.RetryPolicy
	Rules []Rule

	// Backup lists ranks with a warm backup clone: the elastic supervisor
	// sets it at runtime when a spare Pool slot duplicates a straggler's
	// shard, and the mesh then exempts links touching those ranks from
	// straggler/degrade slowdowns — the clean clone's stream wins the race.
	// Runtime state, not part of the grammar; String does not render it.
	Backup []int
}

// Recoverable reports whether every rule preserves completion: a scenario
// without crash and stall rules slows training down but cannot make it fail,
// and (with retry covering the link-down windows) must finish bitwise equal
// to the fault-free run.
func (s *Scenario) Recoverable() bool {
	for _, r := range s.Rules {
		if r.Kind == RuleCrash || r.Kind == RuleStall || r.Kind == RulePreempt {
			return false
		}
	}
	return true
}

func (s *Scenario) has(k RuleKind) bool {
	for _, r := range s.Rules {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// applyDefaults fills Seed/Deadline/Retry for rules that need them to
// terminate: unrecoverable scenarios need a deadline to escape a dark peer,
// and link-down windows need retry to be recoverable.
func (s *Scenario) applyDefaults() {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Deadline == 0 && (s.has(RuleCrash) || s.has(RuleStall) || s.has(RulePreempt)) {
		s.Deadline = 2 * time.Second
	}
	if s.Retry.Attempts == 0 && (s.has(RuleFlap) || s.has(RulePartition)) {
		s.Retry = comm.DefaultRetry()
	}
}

// Parse parses the -faults CLI grammar documented at the top of this file.
// An empty string yields an empty (fault-free) scenario.
func Parse(src string) (*Scenario, error) {
	sc := &Scenario{Seed: 1}
	rest := strings.TrimSpace(src)
	for rest != "" {
		open := strings.IndexByte(rest, '(')
		closeP := strings.IndexByte(rest, ')')
		if open <= 0 || closeP < open {
			return nil, fmt.Errorf("faultnet: expected rule `name(args)` at %q", rest)
		}
		name := strings.TrimSpace(rest[:open])
		args := rest[open+1 : closeP]
		rest = strings.TrimSpace(rest[closeP+1:])
		if err := sc.parseRule(name, args); err != nil {
			return nil, err
		}
	}
	sc.applyDefaults()
	return sc, nil
}

// CheckWorld reports the first rule that names a rank outside a world of
// the given size — a rank, a link endpoint or a partition member. Such a
// rule could never fire.
func (s *Scenario) CheckWorld(world int) error {
	for _, r := range s.Rules {
		ranks := []int{r.Rank, r.Link.A, r.Link.B}
		for _, g := range r.Groups {
			ranks = append(ranks, g...)
		}
		for _, rk := range ranks {
			if rk >= world {
				return fmt.Errorf("faultnet: %s names rank %d, outside a %d-rank world", r, rk, world)
			}
		}
	}
	return nil
}

// MustParse is Parse for tests and fixed literals; it panics on error.
func MustParse(src string) *Scenario {
	sc, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return sc
}

// kvArgs splits "k=v, k2=v2, bare" into a map plus the bare tokens.
func kvArgs(args string) (map[string]string, []string, error) {
	kv := map[string]string{}
	var bare []string
	for _, part := range strings.Split(args, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			k := strings.TrimSpace(part[:eq])
			v := strings.TrimSpace(part[eq+1:])
			if _, dup := kv[k]; dup {
				return nil, nil, fmt.Errorf("faultnet: duplicate key %q", k)
			}
			kv[k] = v
		} else {
			bare = append(bare, part)
		}
	}
	return kv, bare, nil
}

func parseLink(s string) (Link, error) {
	if s == "" || s == "*" {
		return AnyLink, nil
	}
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return Link{}, fmt.Errorf("faultnet: link %q must be `a-b`, `a-*` or `*`", s)
	}
	end := func(e string) (int, error) {
		if e == "*" {
			return -1, nil
		}
		r, err := strconv.ParseUint(e, 10, 31)
		return int(r), err
	}
	la, err := end(a)
	if err != nil {
		return Link{}, fmt.Errorf("faultnet: link %q: %w", s, err)
	}
	lb, err := end(b)
	if err != nil {
		return Link{}, fmt.Errorf("faultnet: link %q: %w", s, err)
	}
	return Link{A: la, B: lb}, nil
}

// parseBeta parses a per-byte time — a decimal number and one Go duration
// unit, like "1ns/B" or "0.25ns/B" — into seconds per byte.
func parseBeta(s string) (float64, error) {
	v, ok := strings.CutSuffix(s, "/B")
	num := strings.TrimRightFunc(v, unicode.IsLetter)
	unit, uerr := time.ParseDuration("1" + v[len(num):])
	x, err := strconv.ParseFloat(num, 64)
	beta := x * float64(unit) / 1e9
	if !ok || uerr != nil || err != nil || !(beta >= 0) || math.IsInf(beta*1e9, 0) {
		return 0, fmt.Errorf("faultnet: beta %q must be a finite, non-negative number and time unit per byte, like 0.25ns/B", s)
	}
	return beta, nil
}

// bwBeta is the per-byte time of a bw rule's rate in MB/s.
func bwBeta(mbps float64) float64 { return 1 / (mbps * 1e6) }

// shortest returns the shortest decimal x, in strconv 'g' form, with
// back(x) == want, searching roundings of the doubles within a few ulps of
// approx — where inverting back on want lands, give or take the roundings of
// the inversion — and approx itself should none qualify.
func shortest(approx float64, back func(float64) float64, want float64) string {
	cands := []float64{approx}
	for i, lo, hi := 0, approx, approx; i < 8; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		cands = append(cands, lo, hi)
	}
	for prec := 1; prec <= 17; prec++ {
		for _, c := range cands {
			x, _ := strconv.ParseFloat(strconv.FormatFloat(c, 'g', prec, 64), 64)
			if back(x) == want {
				return strconv.FormatFloat(x, 'g', -1, 64)
			}
		}
	}
	return strconv.FormatFloat(approx, 'g', -1, 64)
}

// parseGroups parses partition sides "0-1|2-3" (ranks joined by -, sides by
// |). A rank belongs to one side, listed once.
func parseGroups(s string) ([][]int, error) {
	sides := strings.Split(s, "|")
	if len(sides) < 2 {
		return nil, fmt.Errorf("faultnet: partition groups %q need at least two |-separated sides", s)
	}
	out := make([][]int, len(sides))
	seen := map[int]bool{}
	for i, side := range sides {
		for _, rs := range strings.Split(side, "-") {
			r, err := strconv.Atoi(strings.TrimSpace(rs))
			if err != nil {
				return nil, fmt.Errorf("faultnet: partition groups %q: %w", s, err)
			}
			if seen[r] {
				return nil, fmt.Errorf("faultnet: partition groups %q list rank %d twice", s, r)
			}
			seen[r] = true
			out[i] = append(out[i], r)
		}
		if len(out[i]) == 0 {
			return nil, fmt.Errorf("faultnet: partition groups %q has an empty side", s)
		}
	}
	return out, nil
}

type argParser struct {
	kv   map[string]string
	used map[string]bool
	err  error
}

func (a *argParser) get(key string) (string, bool) {
	a.used[key] = true
	v, ok := a.kv[key]
	return v, ok
}

func (a *argParser) dur(key string, def time.Duration) time.Duration {
	v, ok := a.get(key)
	if !ok || a.err != nil {
		return def
	}
	d, err := parseDur(v)
	if err != nil {
		a.err = fmt.Errorf("faultnet: %s=%q: %w", key, v, err)
	}
	return d
}

func (a *argParser) float(key string, def float64) float64 {
	v, ok := a.get(key)
	if !ok || a.err != nil {
		return def
	}
	f, err := parseFinite(v)
	if err != nil {
		a.err = fmt.Errorf("faultnet: %s=%q: %w", key, v, err)
	}
	return f
}

// parseDur is time.ParseDuration for a grammar with no negative durations.
func parseDur(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration")
	}
	return d, err
}

// parseFinite is strconv.ParseFloat for a grammar with no NaN or infinity.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("not a finite number")
	}
	return f, err
}

func (a *argParser) int(key string, def int) int {
	v, ok := a.get(key)
	if !ok || a.err != nil {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		a.err = fmt.Errorf("faultnet: %s=%q: %w", key, v, err)
	}
	return n
}

func (a *argParser) finish(name string) error {
	if a.err != nil {
		return a.err
	}
	for k := range a.kv {
		if !a.used[k] {
			return fmt.Errorf("faultnet: %s: unknown key %q", name, k)
		}
	}
	return nil
}

func (s *Scenario) parseRule(name, args string) error {
	kv, bare, err := kvArgs(args)
	if err != nil {
		return err
	}
	a := &argParser{kv: kv, used: map[string]bool{}}
	r := Rule{Rank: -1, Step: -1}

	link := func() {
		ls, _ := a.get("link")
		if a.err == nil {
			r.Link, a.err = parseLink(ls)
		}
	}
	needRank := func() {
		r.Rank = a.int("rank", -1)
		if a.err == nil && r.Rank < 0 {
			a.err = fmt.Errorf("faultnet: %s requires rank=N", name)
		}
	}
	// A probability of 0 would make the rule a no-op.
	needP := func() {
		r.P = a.float("p", 0)
		if a.err == nil && !(r.P > 0 && r.P <= 1) {
			a.err = fmt.Errorf("faultnet: %s requires p in (0, 1], got p=%v", name, r.P)
		}
	}

	switch name {
	case "seed":
		if len(bare) != 1 {
			return fmt.Errorf("faultnet: seed takes one bare value, e.g. seed(42)")
		}
		v, err := strconv.ParseUint(bare[0], 10, 64)
		if err != nil {
			return fmt.Errorf("faultnet: seed(%s): %w", bare[0], err)
		}
		s.Seed = v
		return nil
	case "deadline":
		if len(bare) != 1 {
			return fmt.Errorf("faultnet: deadline takes one bare duration, e.g. deadline(500ms)")
		}
		d, err := parseDur(bare[0])
		if err != nil {
			return fmt.Errorf("faultnet: deadline(%s): %w", bare[0], err)
		}
		s.Deadline = d
		return nil
	case "retry":
		s.Retry = comm.RetryPolicy{
			Attempts:   a.int("attempts", comm.DefaultRetry().Attempts),
			Backoff:    a.dur("backoff", comm.DefaultRetry().Backoff),
			MaxBackoff: a.dur("max", comm.DefaultRetry().MaxBackoff),
		}
		if a.err == nil && s.Retry.Attempts < 1 {
			a.err = fmt.Errorf("faultnet: retry needs attempts >= 1")
		}
		return a.finish(name)
	case "delay":
		r.Kind = RuleDelay
		link()
		r.Alpha = a.dur("alpha", 0)
		if bs, ok := a.get("beta"); ok && a.err == nil {
			r.Beta, a.err = parseBeta(bs)
		}
		r.Jitter = a.dur("jitter", 0)
		if a.err == nil && r.Alpha <= 0 && r.Beta <= 0 && r.Jitter <= 0 {
			a.err = fmt.Errorf("faultnet: delay needs at least one of alpha/beta/jitter")
		}
	case "bw":
		r.Kind = RuleBandwidth
		link()
		mbps := a.float("mbps", 0)
		if gbps := a.float("gbps", 0); gbps > 0 {
			mbps = gbps * 1000
		}
		if a.err == nil && mbps <= 0 {
			a.err = fmt.Errorf("faultnet: bw requires mbps=N or gbps=N")
		}
		r.Beta = bwBeta(mbps)
		if a.err == nil && (r.Beta <= 0 || math.IsInf(r.Beta*1e6, 0)) {
			a.err = fmt.Errorf("faultnet: bw rate %v MB/s out of range", mbps)
		}
	case "loss":
		r.Kind = RuleLoss
		link()
		needP()
		r.Resend = a.dur("resend", time.Millisecond)
	case "dup":
		r.Kind = RuleDup
		link()
		needP()
	case "reorder":
		r.Kind = RuleReorder
		link()
		needP()
	case "straggler":
		r.Kind = RuleStraggler
		needRank()
		r.Factor = a.float("x", 0)
		for _, b := range bare { // bare x3 form
			if f, ok := strings.CutPrefix(b, "x"); ok && a.err == nil {
				r.Factor, a.err = parseFinite(f)
			}
		}
		if a.err == nil && r.Factor <= 1 {
			a.err = fmt.Errorf("faultnet: straggler requires a factor > 1 (x3 or x=3)")
		}
	case "degrade":
		r.Kind = RuleDegrade
		needRank()
		r.Step = a.int("after", 0)
		r.Factor = a.float("factor", 0)
		r.Ramp = a.int("ramp", 4)
		if a.err == nil && r.Factor <= 1 {
			a.err = fmt.Errorf("faultnet: degrade requires factor > 1")
		}
		if a.err == nil && (r.Step < 0 || r.Ramp < 0) {
			a.err = fmt.Errorf("faultnet: degrade needs after >= 0 and ramp >= 0")
		}
	case "crash", "stall", "preempt":
		r.Kind = map[string]RuleKind{"crash": RuleCrash, "stall": RuleStall, "preempt": RulePreempt}[name]
		needRank()
		r.Step = a.int("step", -1)
		if a.err == nil && r.Step < 0 {
			a.err = fmt.Errorf("faultnet: %s requires step=N (0-based global step)", name)
		}
	case "flap":
		r.Kind = RuleFlap
		needRank()
		r.Period = a.dur("period", 50*time.Millisecond)
		r.Duty = a.float("duty", 0.8)
		if a.err == nil && (r.Duty <= 0 || r.Duty >= 1 || r.Period <= 0) {
			a.err = fmt.Errorf("faultnet: flap needs period>0 and duty in (0,1)")
		}
	case "partition":
		r.Kind = RulePartition
		if gs, ok := a.get("groups"); ok && a.err == nil {
			r.Groups, a.err = parseGroups(gs)
		} else if a.err == nil {
			a.err = fmt.Errorf("faultnet: partition requires groups=a-b|c-d")
		}
		r.After = a.dur("after", 0)
		r.Dur = a.dur("dur", 20*time.Millisecond)
	default:
		return fmt.Errorf("faultnet: unknown rule %q (want delay/bw/loss/dup/reorder/straggler/degrade/crash/stall/preempt/flap/partition/seed/deadline/retry)", name)
	}
	if err := a.finish(name); err != nil {
		return err
	}
	s.Rules = append(s.Rules, r)
	return nil
}

// String renders the canonical scenario text; Parse(s.String()) round-trips.
func (s *Scenario) String() string {
	var parts []string
	if s.Seed != 1 {
		parts = append(parts, fmt.Sprintf("seed(%d)", s.Seed))
	}
	if s.Deadline > 0 {
		parts = append(parts, fmt.Sprintf("deadline(%s)", s.Deadline))
	}
	if s.Retry.Attempts > 0 {
		parts = append(parts, fmt.Sprintf("retry(attempts=%d, backoff=%s, max=%s)",
			s.Retry.Attempts, s.Retry.Backoff, s.Retry.MaxBackoff))
	}
	for _, r := range s.Rules {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, " ")
}

func (r Rule) String() string {
	var args []string
	add := func(f string, v ...any) { args = append(args, fmt.Sprintf(f, v...)) }
	switch r.Kind {
	case RuleDelay:
		add("link=%s", r.Link)
		if r.Alpha > 0 {
			add("alpha=%s", r.Alpha)
		}
		if r.Beta > 0 {
			add("beta=%sns/B", shortest(r.Beta*1e9, func(x float64) float64 { return x / 1e9 }, r.Beta))
		}
		if r.Jitter > 0 {
			add("jitter=%s", r.Jitter)
		}
	case RuleBandwidth:
		add("link=%s", r.Link)
		add("mbps=%s", shortest(1/(r.Beta*1e6), bwBeta, r.Beta))
	case RuleLoss:
		add("link=%s", r.Link)
		add("p=%g", r.P)
		add("resend=%s", r.Resend)
	case RuleDup, RuleReorder:
		add("link=%s", r.Link)
		add("p=%g", r.P)
	case RuleStraggler:
		add("rank=%d", r.Rank)
		add("x=%g", r.Factor)
	case RuleDegrade:
		add("rank=%d", r.Rank)
		add("after=%d", r.Step)
		add("factor=%g", r.Factor)
		add("ramp=%d", r.Ramp)
	case RuleCrash, RuleStall, RulePreempt:
		add("rank=%d", r.Rank)
		add("step=%d", r.Step)
	case RuleFlap:
		add("rank=%d", r.Rank)
		add("period=%s", r.Period)
		add("duty=%g", r.Duty)
	case RulePartition:
		var sides []string
		for _, g := range r.Groups {
			var rs []string
			for _, rk := range g {
				rs = append(rs, strconv.Itoa(rk))
			}
			sides = append(sides, strings.Join(rs, "-"))
		}
		add("groups=%s", strings.Join(sides, "|"))
		add("after=%s", r.After)
		add("dur=%s", r.Dur)
	}
	return ruleNames[r.Kind] + "(" + strings.Join(args, ", ") + ")"
}
