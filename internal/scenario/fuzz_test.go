package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse fuzzes the two spec input surfaces: the JSON decoder (Parse)
// and the -set grammar (ApplySet). Neither, nor Validate, may panic, and a
// spec that validates must round-trip: its JSON parses back to a spec that
// still validates and re-encodes to identical bytes. The body never expands
// a spec's replica keys — "samples": 2000000000 is a valid spec.
func FuzzParse(f *testing.F) {
	for _, name := range []string{"custom.json", "failures.json", "jobmix.json"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "examples", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, "procs=8,16")
	}
	f.Fuzz(func(t *testing.T, spec []byte, set string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		roundTrip(t, s)
		if ApplySet(&s, set) != nil || s.Validate() != nil {
			return
		}
		roundTrip(t, s)
	})
}

// roundTrip checks that a valid spec survives JSON → Parse → JSON
// byte-identically and still validates.
func roundTrip(t *testing.T, s Scenario) {
	t.Helper()
	b, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON of a valid spec: %v", err)
	}
	back, err := Parse(b)
	if err != nil {
		t.Fatalf("valid spec does not parse back: %v\n%s", err, b)
	}
	again, err := back.JSON()
	if err != nil {
		t.Fatalf("JSON of the parsed spec: %v", err)
	}
	if !bytes.Equal(b, again) {
		t.Fatalf("JSON round trip changed the spec:\n%s\n---\n%s", b, again)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped spec no longer validates: %v", err)
	}
}
