package compress

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// BucketInfo describes one bucket of the gradient partition — the metadata
// the training runtime hands a Policy so it can choose that bucket's
// algorithm spec.
type BucketInfo struct {
	// Index is the bucket's position in flattened-vector order.
	Index int
	// Params is the bucket's element count.
	Params int
	// Bytes is the bucket's raw float32 size (4 * Params) — what size
	// thresholds compare against.
	Bytes int64
	// Layers names the tensors the bucket covers, in layer order
	// (nn.Segment names, e.g. "fc1.W") — what bylayer patterns match.
	Layers []string
}

// Policy maps each bucket to the algorithm spec that synchronizes it. A
// Policy is a pure function of BucketInfo: for a fixed bucket plan it always
// returns the same specs, so policy-driven runs are deterministic per seed.
type Policy interface {
	// Name returns the policy's canonical spec string.
	Name() string
	// SpecFor returns the (already-validated) spec for one bucket.
	SpecFor(b BucketInfo) *Spec
	// Specs enumerates every spec the policy can return, so callers can
	// validate or price them up front.
	Specs() []*Spec
}

// PolicyBuilder constructs a policy from its spec arguments. The builder
// must validate every referenced algorithm spec (CheckSpec) so SpecFor
// cannot fail at runtime.
type PolicyBuilder func(args []Arg) (Policy, error)

// policyEntry pairs a policy's constructor with its usage signature.
type policyEntry struct {
	build PolicyBuilder
	usage string
}

var policyRegistry = struct {
	sync.RWMutex
	m map[string]policyEntry
}{m: map[string]policyEntry{}}

// RegisterPolicy adds a policy under the given spec name, with the usage
// signature that unknown-policy errors and CLI flag help print (e.g.
// "mixed(big=spec, small=spec, threshold=bytes)"; the bare name is used
// when empty). Like Register, it panics on invalid or duplicate names —
// registration is init-time wiring.
func RegisterPolicy(name, usage string, b PolicyBuilder) {
	if !isAtom(name) {
		panic(fmt.Sprintf("compress: invalid policy name %q", name))
	}
	if b == nil {
		panic(fmt.Sprintf("compress: RegisterPolicy(%q): nil builder", name))
	}
	if usage == "" {
		usage = name
	}
	policyRegistry.Lock()
	defer policyRegistry.Unlock()
	if _, dup := policyRegistry.m[name]; dup {
		panic(fmt.Sprintf("compress: policy %q registered twice", name))
	}
	policyRegistry.m[name] = policyEntry{build: b, usage: usage}
}

// Policies lists the registered policy names, sorted.
func Policies() []string {
	policyRegistry.RLock()
	defer policyRegistry.RUnlock()
	names := make([]string, 0, len(policyRegistry.m))
	for n := range policyRegistry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PolicyUsage lists every registered policy's usage signature, sorted by
// name — what unknown-policy errors and CLI flag help print.
func PolicyUsage() []string {
	names := Policies()
	policyRegistry.RLock()
	defer policyRegistry.RUnlock()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = policyRegistry.m[n].usage
	}
	return out
}

// BuildPolicy constructs a policy from a parsed spec. A name registered as
// a policy builds that policy; a name registered as an algorithm builds
// uniform(spec) — so a plain algorithm spec is a valid policy. "auto" is not
// a policy: it asks the planner for a whole schedule (bucket bounds, specs,
// topology), which no per-bucket choice can stand for.
func BuildPolicy(s *Spec) (Policy, error) {
	if s.Name == "auto" {
		return nil, fmt.Errorf("compress: %q plans a whole schedule, it is not a per-bucket policy — pass it as a2sgd.TrainConfig.Spec or Policy (a2sgdtrain -policy, a2sgdserve -spec)", s)
	}
	policyRegistry.RLock()
	e, ok := policyRegistry.m[s.Name]
	policyRegistry.RUnlock()
	if ok {
		return e.build(s.Args)
	}
	if _, isAlgo := LookupBuilder(s.Name); isAlgo {
		if err := validateSpec(s); err != nil {
			return nil, err
		}
		return &uniform{spec: s}, nil
	}
	return nil, fmt.Errorf("compress: unknown policy %q — policies: %s; or any algorithm spec: %s",
		s.Name, strings.Join(PolicyUsage(), ", "), strings.Join(Usage(), ", "))
}

// ParsePolicy parses and builds a policy spec string.
func ParsePolicy(src string) (Policy, error) {
	s, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return BuildPolicy(s)
}

// ---- uniform ----

// uniform synchronizes every bucket with the same spec.
type uniform struct{ spec *Spec }

func (u *uniform) Name() string             { return fmt.Sprintf("uniform(%s)", u.spec) }
func (u *uniform) SpecFor(BucketInfo) *Spec { return u.spec }
func (u *uniform) Specs() []*Spec           { return []*Spec{u.spec} }

// ---- mixed ----

// mixed synchronizes big buckets (raw bytes >= threshold) with one spec and
// small buckets with another — the ROADMAP's embedding-buckets-compressed /
// tiny-head-dense scenario.
type mixed struct {
	big, small *Spec
	threshold  int64
}

func (m *mixed) Name() string {
	return fmt.Sprintf("mixed(big=%s, small=%s, threshold=%s)", m.big, m.small, FormatByteSize(m.threshold))
}

func (m *mixed) SpecFor(b BucketInfo) *Spec {
	if b.Bytes >= m.threshold {
		return m.big
	}
	return m.small
}

func (m *mixed) Specs() []*Spec { return []*Spec{m.big, m.small} }

// ---- bylayer ----

// byLayerRule is one pattern → spec rule of a bylayer policy.
type byLayerRule struct {
	pattern string
	spec    *Spec
}

// byLayer chooses a bucket's spec by layer name: rules are tried in
// declaration order, and the first whose pattern is a substring of any of
// the bucket's layer names wins; the required default covers the rest.
type byLayer struct {
	rules []byLayerRule
	def   *Spec
}

func (p *byLayer) Name() string {
	parts := make([]string, 0, len(p.rules)+1)
	for _, r := range p.rules {
		parts = append(parts, fmt.Sprintf("%s=%s", r.pattern, r.spec))
	}
	parts = append(parts, fmt.Sprintf("default=%s", p.def))
	return "bylayer(" + strings.Join(parts, ", ") + ")"
}

func (p *byLayer) SpecFor(b BucketInfo) *Spec {
	for _, r := range p.rules {
		for _, layer := range b.Layers {
			if strings.Contains(layer, r.pattern) {
				return r.spec
			}
		}
	}
	return p.def
}

func (p *byLayer) Specs() []*Spec {
	out := make([]*Spec, 0, len(p.rules)+1)
	for _, r := range p.rules {
		out = append(out, r.spec)
	}
	return append(out, p.def)
}

// validateSpec checks a spec's names and parameters and trial-builds it, so
// out-of-range values (density > 1, levels < 1) are rejected when the
// policy is constructed, not when a worker first asks for an algorithm.
func validateSpec(s *Spec) error {
	if err := CheckSpec(s); err != nil {
		return err
	}
	_, err := Build(s, DefaultOptions(4))
	return err
}

// specArg converts one policy argument value into a validated algorithm spec.
func specArg(policy string, a Arg) (*Spec, error) {
	s, err := a.Value.AsSpec()
	if err != nil {
		return nil, fmt.Errorf("compress: %s: %s: %w", policy, a.Key, err)
	}
	if err := validateSpec(s); err != nil {
		return nil, fmt.Errorf("compress: %s: %s: %w", policy, a.Key, err)
	}
	return s, nil
}

// Usage signatures of the built-in policies.
const (
	uniformUsage = "uniform(spec)"
	mixedUsage   = "mixed(big=spec, small=spec, threshold=bytes)"
	bylayerUsage = "bylayer(pattern=spec, ..., default=spec)"
)

func init() {
	RegisterPolicy("uniform", uniformUsage, func(args []Arg) (Policy, error) {
		if len(args) != 1 || args[0].Key != "" {
			return nil, fmt.Errorf("compress: uniform takes exactly one algorithm spec — want %s", uniformUsage)
		}
		s, err := specArg("uniform", args[0])
		if err != nil {
			return nil, err
		}
		return &uniform{spec: s}, nil
	})

	RegisterPolicy("mixed", mixedUsage, func(args []Arg) (Policy, error) {
		m := &mixed{
			big:       &Spec{Name: "a2sgd"},
			small:     &Spec{Name: "dense"},
			threshold: 64 * 1024,
		}
		for _, a := range args {
			switch a.Key {
			case "big", "small":
				s, err := specArg("mixed", a)
				if err != nil {
					return nil, err
				}
				if a.Key == "big" {
					m.big = s
				} else {
					m.small = s
				}
			case "threshold":
				if a.Value.Spec != nil {
					return nil, fmt.Errorf("compress: mixed: threshold wants a byte size, got spec %s", a.Value.Spec)
				}
				v, err := ParseByteSize(a.Value.Text)
				if err != nil {
					return nil, fmt.Errorf("compress: mixed: %w", err)
				}
				m.threshold = v
			case "":
				return nil, fmt.Errorf("compress: mixed takes keyed arguments only — want %s", mixedUsage)
			default:
				return nil, fmt.Errorf("compress: mixed: unknown parameter %q — want %s", a.Key, mixedUsage)
			}
		}
		// The defaults reference registered names only when core is linked;
		// validate whichever specs ended up selected.
		for _, s := range m.Specs() {
			if err := validateSpec(s); err != nil {
				return nil, fmt.Errorf("compress: mixed: %w", err)
			}
		}
		return m, nil
	})

	RegisterPolicy("bylayer", bylayerUsage, func(args []Arg) (Policy, error) {
		p := &byLayer{}
		for _, a := range args {
			if a.Key == "" {
				return nil, fmt.Errorf("compress: bylayer takes keyed rules only — want %s", bylayerUsage)
			}
			s, err := specArg("bylayer", a)
			if err != nil {
				return nil, err
			}
			if a.Key == "default" {
				p.def = s
				continue
			}
			p.rules = append(p.rules, byLayerRule{pattern: a.Key, spec: s})
		}
		if p.def == nil {
			return nil, fmt.Errorf("compress: bylayer requires a default rule — want %s", bylayerUsage)
		}
		return p, nil
	})
}
