package expt

import (
	"os"
	"testing"

	"powder/internal/circuits"
)

// TestOutputDigestsMatchCommitted pins the optimizer's output byte for
// byte on the cheapest Table-1 circuits: each one's BLIF digest, free and
// constrained, at -par 1 and -par 2, must equal the committed digest.
// scripts/output_digests.go -check runs every circuit.
func TestOutputDigestsMatchCommitted(t *testing.T) {
	f, err := os.Open("testdata/table1_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	keys, want, err := ReadDigests(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4*len(circuits.All()) {
		t.Fatalf("%d committed digests, want 4 per Table-1 circuit (%d)", len(keys), 4*len(circuits.All()))
	}
	cheap := map[string]bool{"clip": true, "i2": true, "Z5xp1": true, "frg1": true, "rd84": true, "alu4tl": true}
	checked := 0
	for _, k := range keys {
		if !cheap[k.Circuit] {
			continue
		}
		spec, err := circuits.ByName(k.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OutputDigest(spec, k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got != want[k] {
			t.Errorf("%v: output digest %s, committed %s", k, got, want[k])
		}
		checked++
	}
	if checked != 4*len(cheap) {
		t.Fatalf("checked %d configurations, want %d", checked, 4*len(cheap))
	}
}

// TestBiasedDigestsMatchCommitted pins the biased-activity output of the
// cheapest circuits of the biased set, at -par 1 and -par 2.
// scripts/output_digests.go -biased -check runs all twelve.
func TestBiasedDigestsMatchCommitted(t *testing.T) {
	f, err := os.Open("testdata/biased_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	keys, want, err := ReadDigests(f)
	if err != nil {
		t.Fatal(err)
	}
	cheap := map[string]bool{"clip": true, "rd84": true, "t481": true, "C432": true}
	checked := 0
	for _, k := range keys {
		if !k.Biased {
			t.Fatalf("%v: not a biased configuration", k)
		}
		if !cheap[k.Circuit] {
			continue
		}
		spec, err := circuits.ByName(k.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OutputDigest(spec, k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got != want[k] {
			t.Errorf("%v: output digest %s, committed %s", k, got, want[k])
		}
		checked++
	}
	if checked != 2*len(cheap) {
		t.Fatalf("checked %d configurations, want %d", checked, 2*len(cheap))
	}
}
