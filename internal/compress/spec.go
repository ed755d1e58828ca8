package compress

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements the algorithm-spec grammar shared by the registry
// (Build) and the policy layer (ParsePolicy). A spec is a name with an
// optional parenthesized argument list:
//
//	spec  := name [ '(' args ')' ]
//	args  := arg { ',' arg }
//	arg   := [ name '=' ] value
//	value := spec | scalar
//
// Names and scalars are runs of letters, digits and [._+-]; that one token
// class covers algorithm names ("a2sgd-noef"), numbers ("0.01", "8") and
// byte sizes ("64KiB"). Positional arguments (no key) are inner algorithm
// specs for wrappers; keyed arguments are typed parameters validated against
// the registered schema. Examples:
//
//	topk(density=0.01)
//	periodic(qsgd(levels=8), interval=4)
//	mixed(big=a2sgd, small=dense, threshold=64KiB)

// Spec is one parsed node of the grammar: an algorithm (or policy) name and
// its ordered argument list.
type Spec struct {
	// Name is the registered algorithm or policy name.
	Name string
	// Args are the arguments in source order (order matters for positional
	// arguments: a wrapper's inner specs, auto's candidates).
	Args []Arg
}

// Arg is one argument of a spec: positional when Key is empty, keyed
// otherwise.
type Arg struct {
	Key   string
	Value Value
}

// Value is an argument value: either a nested spec (written with
// parentheses, or converted from a bare name by AsSpec) or a scalar token.
type Value struct {
	// Spec is non-nil when the value was written as name(...).
	Spec *Spec
	// Text is the scalar token otherwise ("0.01", "4", "64KiB", "a2sgd").
	Text string
}

// String formats the value in canonical grammar form.
func (v Value) String() string {
	if v.Spec != nil {
		return v.Spec.String()
	}
	return v.Text
}

// AsSpec interprets the value as an algorithm spec: a nested spec is
// returned as is, a bare name token becomes a zero-argument spec.
func (v Value) AsSpec() (*Spec, error) {
	if v.Spec != nil {
		return v.Spec, nil
	}
	if !isAtom(v.Text) {
		return nil, fmt.Errorf("compress: %q is not an algorithm spec", v.Text)
	}
	return &Spec{Name: v.Text}, nil
}

// String formats the spec canonically: Parse(s.String()) reproduces s, and
// reformatting is idempotent.
func (s *Spec) String() string {
	if len(s.Args) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		if a.Key == "" {
			parts[i] = a.Value.String()
		} else {
			parts[i] = a.Key + "=" + a.Value.String()
		}
	}
	return s.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Positional returns the positional (un-keyed) arguments, in order.
func (s *Spec) Positional() []Value {
	var out []Value
	for _, a := range s.Args {
		if a.Key == "" {
			out = append(out, a.Value)
		}
	}
	return out
}

// Keyed returns the value of the named keyed argument, if present.
func (s *Spec) Keyed(key string) (Value, bool) {
	for _, a := range s.Args {
		if a.Key == key {
			return a.Value, true
		}
	}
	return Value{}, false
}

// SetKeyed appends a keyed argument unless the key is already present, and
// reports whether it was added. The bench sweeps' density override lowers
// onto the spec through this (an explicit spec parameter always wins).
func (s *Spec) SetKeyed(key, text string) bool {
	if _, ok := s.Keyed(key); ok {
		return false
	}
	s.Args = append(s.Args, Arg{Key: key, Value: Value{Text: text}})
	return true
}

// Parse parses one spec string. The entire input must be consumed.
func Parse(src string) (*Spec, error) {
	p := &parser{src: src}
	s, err := p.spec()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("compress: spec %q: unexpected %q at offset %d", src, rest(p), p.pos)
	}
	return s, nil
}

type parser struct {
	src string
	pos int
}

func rest(p *parser) string {
	r := p.src[p.pos:]
	if len(r) > 12 {
		r = r[:12] + "…"
	}
	return r
}

func isAtomByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '.' || c == '_' || c == '+' || c == '-'
}

func isAtom(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isAtomByte(s[i]) {
			return false
		}
	}
	return true
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

// atom consumes one token of name/scalar characters.
func (p *parser) atom() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isAtomByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("compress: spec %q: expected a name at offset %d (got %q)", p.src, start, rest(p))
	}
	return p.src[start:p.pos], nil
}

// peek returns the next non-space byte without consuming it (0 at EOF).
func (p *parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

// spec parses name [ '(' args ')' ].
func (p *parser) spec() (*Spec, error) {
	name, err := p.atom()
	if err != nil {
		return nil, err
	}
	if p.peek() != '(' {
		return &Spec{Name: name}, nil
	}
	return p.specAfterName(name)
}

// arg parses [ key '=' ] value.
func (p *parser) arg() (Arg, error) {
	tok, err := p.atom()
	if err != nil {
		return Arg{}, err
	}
	switch p.peek() {
	case '=':
		p.pos++
		v, err := p.value()
		if err != nil {
			return Arg{}, err
		}
		return Arg{Key: tok, Value: v}, nil
	case '(':
		inner, err := p.specAfterName(tok)
		if err != nil {
			return Arg{}, err
		}
		return Arg{Value: Value{Spec: inner}}, nil
	default:
		return Arg{Value: Value{Text: tok}}, nil
	}
}

// value parses scalar | spec (after a '=').
func (p *parser) value() (Value, error) {
	tok, err := p.atom()
	if err != nil {
		return Value{}, err
	}
	if p.peek() == '(' {
		inner, err := p.specAfterName(tok)
		if err != nil {
			return Value{}, err
		}
		return Value{Spec: inner}, nil
	}
	return Value{Text: tok}, nil
}

// specAfterName parses the '(' args ')' tail of a spec whose name was
// already consumed.
func (p *parser) specAfterName(name string) (*Spec, error) {
	s := &Spec{Name: name}
	p.pos++ // consume '('
	if p.peek() == ')' {
		p.pos++
		return s, nil
	}
	for {
		arg, err := p.arg()
		if err != nil {
			return nil, err
		}
		if arg.Key != "" {
			if _, dup := s.Keyed(arg.Key); dup {
				return nil, fmt.Errorf("compress: spec %q: duplicate parameter %q", p.src, arg.Key)
			}
		}
		s.Args = append(s.Args, arg)
		switch p.peek() {
		case ',':
			p.pos++
		case ')':
			p.pos++
			return s, nil
		default:
			return nil, fmt.Errorf("compress: spec %q: expected ',' or ')' at offset %d (got %q)", p.src, p.pos, rest(p))
		}
	}
}

// ParseByteSize parses a byte-size scalar: a number with an optional B /
// KiB / MiB / GiB (binary) or KB / MB / GB (decimal) suffix. "64KiB" →
// 65536, "4096" → 4096, "1.5MiB" → 1572864.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := float64(1)
	lower := strings.ToLower(t)
	switch {
	case strings.HasSuffix(lower, "kib"):
		mult, t = 1024, t[:len(t)-3]
	case strings.HasSuffix(lower, "mib"):
		mult, t = 1024*1024, t[:len(t)-3]
	case strings.HasSuffix(lower, "gib"):
		mult, t = 1024*1024*1024, t[:len(t)-3]
	case strings.HasSuffix(lower, "kb"):
		mult, t = 1000, t[:len(t)-2]
	case strings.HasSuffix(lower, "mb"):
		mult, t = 1000*1000, t[:len(t)-2]
	case strings.HasSuffix(lower, "gb"):
		mult, t = 1000*1000*1000, t[:len(t)-2]
	case strings.HasSuffix(lower, "b"):
		t = t[:len(t)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	n := v * mult
	// Written so that NaN fails too; 1<<63 itself is one past MaxInt64.
	if err != nil || !(n >= 0 && n < 1<<63) {
		return 0, fmt.Errorf("compress: bad byte size %q (want e.g. 4096, 64KiB, 1.5MiB)", s)
	}
	return int64(n), nil
}

// FormatByteSize renders n in the most compact exact binary unit
// (the inverse of ParseByteSize for the canonical cases).
func FormatByteSize(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return strconv.FormatInt(n>>30, 10) + "GiB"
	case n >= 1<<20 && n%(1<<20) == 0:
		return strconv.FormatInt(n>>20, 10) + "MiB"
	case n >= 1<<10 && n%(1<<10) == 0:
		return strconv.FormatInt(n>>10, 10) + "KiB"
	default:
		return strconv.FormatInt(n, 10) + "B"
	}
}
