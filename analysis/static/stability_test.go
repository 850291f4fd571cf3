package static_test

// An external test package: the AES victim (attack/victim) transitively
// imports analysis/static, so this cross-package stability check cannot
// live in the internal test package.

import (
	"bytes"
	"testing"

	"microscope/analysis/static"
	"microscope/analysis/verify"
	"microscope/attack/victim"
)

// Repeated analyses of the same program must produce byte-identical
// JSON and text encodings: CI diffs golden reports, so any map-order
// or pass-order nondeterminism here is a real bug.
func TestReportEncodingByteStable(t *testing.T) {
	analyze := func() *static.Report {
		v, err := victim.NewAESVictim([]byte("0123456789abcdef"), []byte("fedcba9876543210"))
		if err != nil {
			t.Fatal(err)
		}
		l := v.Layout
		r, err := static.Analyze(l.Name, l.Prog, verify.NewSubject(l).Secrets, static.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	base := analyze()
	baseJSON, err := base.JSON()
	if err != nil {
		t.Fatal(err)
	}
	baseText := base.Text()
	if !base.HasFindings() {
		t.Fatal("AES scan produced no findings; the stability check is vacuous")
	}
	for i := 0; i < 5; i++ {
		r := analyze()
		j, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j, baseJSON) {
			t.Fatalf("run %d: JSON encoding differs from the first run", i)
		}
		if r.Text() != baseText {
			t.Fatalf("run %d: text encoding differs from the first run", i)
		}
	}
}
