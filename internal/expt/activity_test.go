package expt

import (
	"bytes"
	"strings"
	"testing"

	"powder/internal/activity"
)

// TestActivityRunsAreLabeled pins that an activity run names its
// workload in the ledger, in the label format of powder and powderd with
// the dump's format as the source, on every circuit of the suite: also
// on one the dump covers in part, and on one it misses altogether,
// which runs instead of being rejected.
func TestActivityRunsAreLabeled(t *testing.T) {
	specs := smallSubset(t, "clip", "t481")
	opts := RunOptions{}
	opts.normalize()
	clip, err := compile(specs[0], &opts)
	if err != nil {
		t.Fatal(err)
	}
	var vcd bytes.Buffer
	if _, err := activity.DumpVCD(&vcd, clip, activity.DumpOptions{Words: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	prof, err := activity.Read(&vcd)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := RunSuite(specs, RunOptions{Activity: prof})
	if err != nil {
		t.Fatal(err)
	}
	prefix := "vcd sha256:" + prof.Digest()[:12] + " "
	for i, want := range []string{"matched 9/9 inputs (100%)", "matched 9/16 inputs (56%), unmatched: x9 "} {
		row := suite.Rows[i]
		for _, d := range []RunDetail{row.Free, row.Constr} {
			if got := d.Ledger.Activity; !strings.HasPrefix(got, prefix+want) {
				t.Errorf("%s: ledger activity %q, want prefix %q", row.Circuit, got, prefix+want)
			}
		}
	}

	miss, err := activity.Read(strings.NewReader("$timescale 1ns $end\n$var wire 1 ! zz $end\n$enddefinitions $end\n#0\n0!\n#1\n1!\n"))
	if err != nil {
		t.Fatal(err)
	}
	suite, err = RunSuite(specs[:1], RunOptions{Activity: miss})
	if err != nil {
		t.Fatalf("a dump that matches no input of a suite circuit must not fail the run: %v", err)
	}
	if got := suite.Rows[0].Free.Ledger.Activity; !strings.Contains(got, "matched 0/9 inputs (0%)") {
		t.Errorf("zero-match ledger activity %q", got)
	}

	suite, err = RunSuite(specs[:1], RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := suite.Rows[0].Free.Ledger.Activity; got != "" {
		t.Errorf("uniform run labeled %q", got)
	}
}
