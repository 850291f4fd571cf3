package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"microscope/analysis/sweep"
	"microscope/analysis/verify"
	"microscope/attack/experiments"
)

// The evidence gate: golden_verdicts.json pins only verdict strings, so
// a change to the verifier's dynamic runs that shifts a projection
// digest without flipping a verdict would pass it. This gate pins the
// simulator-checked evidence behind every builtin's verdict (exploration
// size, witness assignments and projections, certificate baseline), the
// same for the -repair re-verification, and the constant-time control's
// certificate under the differential seeds the msbench mscan workload
// draws (sweep.SeedFor(s, i) for streams 1 and 2). Regenerate after an
// intentional change with:
//
//	go test ./cmd/mscan -run TestGoldenEvidence -update

const evidencePath = "testdata/golden_evidence.json"

// evidence is the pinned part of one verification result: everything
// but the reason text and the abstract sites.
type evidence struct {
	Verdict     string              `json:"verdict"`
	Paths       int                 `json:"paths"`
	Steps       int                 `json:"steps"`
	Witness     *verify.Witness     `json:"witness,omitempty"`
	Certificate *verify.Certificate `json:"certificate,omitempty"`
}

func evidenceOf(r *verify.Result) evidence {
	return evidence{
		Verdict:     r.Verdict.String(),
		Paths:       r.Paths,
		Steps:       r.Steps,
		Witness:     r.Witness,
		Certificate: r.Certificate,
	}
}

// evidenceDoc is the golden file: per builtin the -prove and the
// -prove -repair evidence, and per msbench seed ctcontrol's evidence.
type evidenceDoc struct {
	Prove          map[string]evidence `json:"prove"`
	Repair         map[string]evidence `json:"repair"`
	CtcontrolSeeds map[string]evidence `json:"ctcontrolSeeds"`
}

// subjectOf builds a builtin's verifier subject with its conventional
// replay handle.
func subjectOf(t *testing.T, tgt experiments.SanTarget) *verify.Subject {
	t.Helper()
	lay, err := tgt.Build()
	if err != nil {
		t.Fatal(err)
	}
	sub := verify.NewSubject(lay)
	sub.Handle = lay.Sym(tgt.Handle)
	return sub
}

func TestGoldenEvidence(t *testing.T) {
	got := evidenceDoc{
		Prove:          map[string]evidence{},
		Repair:         map[string]evidence{},
		CtcontrolSeeds: map[string]evidence{},
	}
	var mu sync.Mutex
	put := func(m map[string]evidence, k string, e evidence) {
		mu.Lock()
		m[k] = e
		mu.Unlock()
	}
	t.Run("collect", func(t *testing.T) {
		for _, tgt := range experiments.SanTargets() {
			tgt := tgt
			t.Run(tgt.Name, func(t *testing.T) {
				t.Parallel()
				res, err := verify.Verify(subjectOf(t, tgt), verify.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				put(got.Prove, tgt.Name, evidenceOf(res))
				rr, err := verify.Repair(subjectOf(t, tgt), verify.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				put(got.Repair, tgt.Name, evidenceOf(rr.Result))
			})
		}
		ct, err := experiments.FindSanTarget("ctcontrol")
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []int64{1, 2} {
			for i := 0; i < 3; i++ {
				s, i := s, i
				t.Run(fmt.Sprintf("ctcontrol-seed%d-unit%d", s, i), func(t *testing.T) {
					t.Parallel()
					cfg := verify.DefaultConfig()
					cfg.Seed = sweep.SeedFor(s, i)
					res, err := verify.Verify(subjectOf(t, ct), cfg)
					if err != nil {
						t.Fatal(err)
					}
					put(got.CtcontrolSeeds, fmt.Sprintf("seed%d/unit%d", s, i), evidenceOf(res))
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')

	if *updateGolden {
		if err := os.WriteFile(evidencePath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", evidencePath)
		return
	}
	raw, err := os.ReadFile(evidencePath)
	if err != nil {
		t.Fatalf("reading golden evidence (run with -update to create it): %v", err)
	}
	var want evidenceDoc
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, sec := range []struct {
		name      string
		got, want map[string]evidence
	}{
		{"prove", got.Prove, want.Prove},
		{"repair", got.Repair, want.Repair},
		{"ctcontrolSeeds", got.CtcontrolSeeds, want.CtcontrolSeeds},
	} {
		for k, g := range sec.got {
			w, ok := sec.want[k]
			if !ok {
				t.Errorf("%s/%s: no golden evidence committed (run with -update)", sec.name, k)
				continue
			}
			gj, _ := json.Marshal(g)
			wj, _ := json.Marshal(w)
			if string(gj) != string(wj) {
				t.Errorf("%s/%s: evidence changed\n got: %s\nwant: %s\n"+
					"if this change is intentional, regenerate with -update and review the diff", sec.name, k, gj, wj)
			}
		}
		for k := range sec.want {
			if _, ok := sec.got[k]; !ok {
				t.Errorf("%s/%s: golden entry names no current run (stale; run with -update)", sec.name, k)
			}
		}
	}
	if string(raw) != string(enc) {
		t.Error("golden evidence file is not byte-identical to this run's rendering (run with -update)")
	}
}
