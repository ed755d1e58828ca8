package main

import "testing"

// TestUseTCP: -transport names a fabric or is a usage error — a typo must
// not silently train in-process.
func TestUseTCP(t *testing.T) {
	for _, c := range []struct {
		transport string
		tcp, ok   bool
	}{
		{"inproc", false, true},
		{"tcp", true, true},
		{"tpc", false, false},
		{"TCP", false, false},
		{"", false, false},
	} {
		tcp, err := useTCP(c.transport)
		if (err == nil) != c.ok || tcp != c.tcp {
			t.Errorf("useTCP(%q) = %v, %v; want tcp=%v ok=%v", c.transport, tcp, err, c.tcp, c.ok)
		}
	}
}
