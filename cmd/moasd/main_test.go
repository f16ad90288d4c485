package main

import "testing"

// TestParseLocalAS: -bgp-as takes the AS numbers 1-4294967295 as they
// are and refuses everything else, where a cast to 32 bits would wrap a
// wider value onto another AS and turn 4294967296 into 0.
func TestParseLocalAS(t *testing.T) {
	for _, c := range []struct {
		in   uint64
		want uint32
		ok   bool
	}{
		{64512, 64512, true},
		{1, 1, true},
		{4294967295, 4294967295, true},
		{0, 0, false},
		{4294967296, 0, false},
		{4294967297, 0, false},
		{1 << 63, 0, false},
	} {
		got, err := parseLocalAS(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseLocalAS(%d) = %d, %v; want %d, ok %v", c.in, got, err, c.want, c.ok)
		}
	}
}
