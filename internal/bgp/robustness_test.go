package bgp

import (
	"math/rand"
	"testing"
)

// Robustness: every decoder in the package must reject arbitrary bytes
// with an error — never a panic — because archive consumers feed them
// whatever is on disk. These tests fuzz the decoders with random and
// mutated-valid inputs.

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

func TestDecodersNeverPanicOnRandomBytes(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for i := 0; i < 30000; i++ {
		b := randBytes(r, r.Intn(64))
		var a Attrs
		_ = a.DecodeAttrs(b)
		_ = a.DecodeAttrsEx(b, true)
		_, _ = decodePath(b)
		_, _ = decodePathSizedInto(nil, b, 4)
		_, _, _ = DecodeNLRI(b, FamilyIPv4)
		_, _, _ = DecodeNLRI(b, FamilyIPv6)
		_, _, _ = DecodeMessage(b)
		_ = DecodeUpdateBodyInto(new(Update), b, nil)
	}
}

func TestDecodersNeverPanicOnMutatedValid(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	valid := (&Update{
		Withdrawn: []Prefix{MustParsePrefix("10.0.0.0/8")},
		Attrs:     sampleAttrs(),
		NLRI:      []Prefix{MustParsePrefix("198.51.100.0/24")},
	}).AppendWire(nil)
	for i := 0; i < 30000; i++ {
		b := append([]byte(nil), valid...)
		// Flip 1-4 random bytes; truncate sometimes.
		for j := 1 + r.Intn(4); j > 0; j-- {
			b[r.Intn(len(b))] = byte(r.Intn(256))
		}
		if r.Intn(4) == 0 {
			b = b[:r.Intn(len(b))]
		}
		_, _, _ = DecodeMessage(b)
		if len(b) > 19 {
			_ = DecodeUpdateBodyInto(new(Update), b[19:], nil)
		}
	}
}

func TestParsersNeverPanicOnRandomStrings(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	alphabet := "0123456789./:{}abg ,"
	for i := 0; i < 20000; i++ {
		n := r.Intn(24)
		s := make([]byte, n)
		for j := range s {
			s[j] = alphabet[r.Intn(len(alphabet))]
		}
		_, _ = ParsePrefix(string(s))
		_, _ = ParsePath(string(s))
	}
}
