package compress

import (
	"fmt"
	"strings"
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

// Usage signatures of the two policies.
const (
	uniformUsage = "uniform(spec)"
	mixedUsage   = "mixed(big=spec, small=spec, threshold=bytes)"
)

// PolicyUsage lists the policy signatures, sorted by name — what
// unknown-policy errors and CLI flag help print.
func PolicyUsage() []string { return []string{mixedUsage, uniformUsage} }

// BuildPolicy constructs a policy from a parsed spec: uniform(spec),
// mixed(…), or a plain algorithm spec, which builds uniform(spec). "auto" is
// not a policy: it asks the planner for a whole schedule (bucket bounds,
// specs, topology), which no per-bucket choice can stand for.
func BuildPolicy(s *Spec) (Policy, error) {
	switch s.Name {
	case "auto":
		return nil, fmt.Errorf("compress: %q plans a whole schedule, it is not a per-bucket policy — pass it as a2sgd.TrainConfig.Spec (a2sgdtrain -spec, the \"spec\" of an a2sgdserve job)", s)
	case "uniform":
		return buildUniform(s.Args)
	case "mixed":
		return buildMixed(s.Args)
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

func buildUniform(args []Arg) (Policy, error) {
	if len(args) != 1 || args[0].Key != "" {
		return nil, fmt.Errorf("compress: uniform takes exactly one algorithm spec — want %s", uniformUsage)
	}
	s, err := specArg("uniform", args[0])
	if err != nil {
		return nil, err
	}
	return &uniform{spec: s}, nil
}

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

func buildMixed(args []Arg) (Policy, error) {
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
