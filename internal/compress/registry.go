package compress

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ParamKind types a spec parameter. Scalars are validated against their kind
// when the spec is checked, before any algorithm is constructed.
type ParamKind int

// Parameter kinds.
const (
	// ParamInt is a base-10 integer ("4").
	ParamInt ParamKind = iota
	// ParamFloat is a finite decimal number ("0.01").
	ParamFloat
	// ParamString is free text (one grammar atom).
	ParamString
)

// String names the kind for signatures and error messages.
func (k ParamKind) String() string {
	switch k {
	case ParamInt:
		return "int"
	case ParamFloat:
		return "float"
	default:
		return "string"
	}
}

// ParamSpec declares one accepted keyed parameter of a registered algorithm.
type ParamSpec struct {
	// Name is the parameter key as written in specs.
	Name string
	// Kind is the scalar type the value must parse as.
	Kind ParamKind
	// Doc is a one-line description for usage listings.
	Doc string
}

// BuildArgs carries a spec's validated arguments into a Builder.Build call.
type BuildArgs struct {
	// Inner holds the already-built inner algorithms of a wrapper spec
	// (len == Builder.Wraps).
	Inner []Algorithm
	// values maps parameter name → parsed value (int64 / float64 / string),
	// validated against the declared ParamSpec kinds.
	values map[string]any
}

// Int returns the named int parameter, or def when the spec omitted it.
func (a BuildArgs) Int(name string, def int) int {
	if v, ok := a.values[name]; ok {
		return int(v.(int64))
	}
	return def
}

// Float returns the named float parameter, or def when omitted.
func (a BuildArgs) Float(name string, def float64) float64 {
	if v, ok := a.values[name]; ok {
		return v.(float64)
	}
	return def
}

// Str returns the named string parameter, or def when omitted.
func (a BuildArgs) Str(name, def string) string {
	if v, ok := a.values[name]; ok {
		return v.(string)
	}
	return def
}

// Builder registers one algorithm: its parameter schema and constructor.
// Third-party compressors plug into the spec grammar, the CLIs and the
// policy layer by registering a Builder under a new name.
type Builder struct {
	// Summary is a one-line description for usage listings.
	Summary string
	// Params declares the accepted keyed parameters. Unknown keys are
	// rejected at spec-check time with the accepted list in the error.
	Params []ParamSpec
	// Wraps is the number of inner algorithm specs the name takes as
	// leading positional arguments: 0 for leaf algorithms, 1 for wrappers
	// like periodic. Inner algorithms are built first (with the same
	// Options) and handed to Build via BuildArgs.Inner.
	Wraps int
	// Build constructs the algorithm. Options carries the runtime-owned
	// tunables (N, Seed, Allreduce, and the legacy Density/QuantLevels
	// defaults); spec parameters arrive in args and take precedence. Build
	// may reject out-of-range values.
	Build func(o Options, args BuildArgs) (Algorithm, error)
	// Cost, when non-nil, estimates the algorithm's planning costs (encode
	// time, payload, collective) for the given parameters without building
	// anything — what SpecCost, the auto policy and the plan package price
	// candidate specs with. args carries the typed spec parameters only
	// (args.Inner is nil); inner holds the already-resolved cost models of
	// wrapped specs, one per Wraps. Nil falls back to building the
	// algorithm once and sampling its PayloadBytes/ExchangeKind.
	Cost func(o Options, args BuildArgs, inner []CostModel) CostModel
}

var registry = struct {
	sync.RWMutex
	m map[string]Builder
}{m: map[string]Builder{}}

// Register adds an algorithm under the given spec name. It panics on an
// empty or duplicate name, a name that is not a grammar atom, or a nil
// Build — registration is init-time wiring, not runtime input.
func Register(name string, b Builder) {
	if !isAtom(name) {
		panic(fmt.Sprintf("compress: invalid algorithm name %q", name))
	}
	if b.Build == nil {
		panic(fmt.Sprintf("compress: Register(%q): nil Build", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("compress: algorithm %q registered twice", name))
	}
	registry.m[name] = b
}

// LookupBuilder returns the registered builder for name.
func LookupBuilder(name string) (Builder, bool) {
	registry.RLock()
	defer registry.RUnlock()
	b, ok := registry.m[name]
	return b, ok
}

// Registered lists all registered algorithm names, sorted.
func Registered() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.m))
	for n := range registry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Evaluated lists the five methods of the paper's evaluation in
// figure-legend order — the default set for sweeps and CLIs.
func Evaluated() []string {
	return []string{"dense", "topk", "qsgd", "gaussiank", "a2sgd"}
}

// Signature renders one algorithm's spec signature, e.g.
// "topk(density=float)" or "periodic(inner, interval=int)".
func Signature(name string) string {
	b, ok := LookupBuilder(name)
	if !ok {
		return name
	}
	var parts []string
	for i := 0; i < b.Wraps; i++ {
		parts = append(parts, "inner")
	}
	for _, p := range b.Params {
		parts = append(parts, p.Name+"="+p.Kind.String())
	}
	if len(parts) == 0 {
		return name
	}
	return name + "(" + strings.Join(parts, ", ") + ")"
}

// Usage lists every registered algorithm's signature, sorted by name —
// what unknown-spec errors and CLI flag help print.
func Usage() []string {
	names := Registered()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = Signature(n)
	}
	return out
}

// unknownError reports an unregistered name, listing every registered
// signature so the caller can see both the names and their parameters.
func unknownError(name string) error {
	return fmt.Errorf("compress: unknown algorithm %q — registered specs: %s",
		name, strings.Join(Usage(), ", "))
}

// checkArgs validates a spec's arguments against the registered schema and
// parses the keyed scalars. Returns the positional inner specs and the
// typed parameter values.
func checkArgs(s *Spec, b Builder) (inner []*Spec, values map[string]any, err error) {
	values = map[string]any{}
	for _, a := range s.Args {
		if a.Key == "" {
			sp, err := a.Value.AsSpec()
			if err != nil {
				return nil, nil, fmt.Errorf("compress: %s: %w", s.Name, err)
			}
			inner = append(inner, sp)
			continue
		}
		var ps *ParamSpec
		for i := range b.Params {
			if b.Params[i].Name == a.Key {
				ps = &b.Params[i]
				break
			}
		}
		if ps == nil {
			accepted := "accepts no parameters"
			if len(b.Params) > 0 || b.Wraps > 0 {
				accepted = "accepts " + Signature(s.Name)
			}
			return nil, nil, fmt.Errorf("compress: %s: unknown parameter %q (%s)", s.Name, a.Key, accepted)
		}
		if a.Value.Spec != nil {
			return nil, nil, fmt.Errorf("compress: %s: parameter %q wants a %s, got spec %s",
				s.Name, a.Key, ps.Kind, a.Value.Spec)
		}
		switch ps.Kind {
		case ParamInt:
			v, err := strconv.ParseInt(a.Value.Text, 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("compress: %s: parameter %s=%q is not an int", s.Name, a.Key, a.Value.Text)
			}
			values[a.Key] = v
		case ParamFloat:
			v, err := strconv.ParseFloat(a.Value.Text, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("compress: %s: parameter %s=%q is not a float (want a finite decimal)", s.Name, a.Key, a.Value.Text)
			}
			values[a.Key] = v
		default:
			values[a.Key] = a.Value.Text
		}
	}
	if len(inner) != b.Wraps {
		return nil, nil, fmt.Errorf("compress: %s takes %d inner algorithm(s), got %d — want %s",
			s.Name, b.Wraps, len(inner), Signature(s.Name))
	}
	return inner, values, nil
}

// CheckSpec validates a spec tree against the registry — names, parameter
// keys, scalar kinds and wrapper arity — without constructing anything.
func CheckSpec(s *Spec) error {
	b, ok := LookupBuilder(s.Name)
	if !ok {
		return unknownError(s.Name)
	}
	inner, _, err := checkArgs(s, b)
	if err != nil {
		return err
	}
	for _, sp := range inner {
		if err := CheckSpec(sp); err != nil {
			return err
		}
	}
	return nil
}

// Build constructs the algorithm a spec tree describes. Inner (wrapped)
// algorithms are built first, with the same Options; spec parameters
// override the corresponding Options defaults.
func Build(s *Spec, o Options) (Algorithm, error) {
	if o.N <= 0 {
		return nil, fmt.Errorf("compress: Build(%s): Options.N must be positive", s)
	}
	b, ok := LookupBuilder(s.Name)
	if !ok {
		return nil, unknownError(s.Name)
	}
	innerSpecs, values, err := checkArgs(s, b)
	if err != nil {
		return nil, err
	}
	args := BuildArgs{values: values}
	for _, sp := range innerSpecs {
		in, err := Build(sp, o)
		if err != nil {
			return nil, err
		}
		args.Inner = append(args.Inner, in)
	}
	a, err := b.Build(o, args)
	if err != nil {
		return nil, fmt.Errorf("compress: %s: %w", s, err)
	}
	return a, nil
}

// ParseBuild parses a spec string and builds it — the one-call path the
// façade and CLIs use.
func ParseBuild(src string, o Options) (Algorithm, error) {
	s, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Build(s, o)
}
