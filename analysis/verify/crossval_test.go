package verify

import (
	"testing"

	"microscope/attack/victim"
	"microscope/sim/mem"
)

// Cross-validation: every builtin victim through the full verifier.
// The paper's attackable victims must come out LEAKY with a
// simulator-checked witness on the claimed channel; the constant-time
// control must come out PROVEN-SAFE with a full differential
// certificate; and fence repair must turn the Fig. 5 and Fig. 6 victims
// PROVEN-SAFE.

type crossCase struct {
	name    string
	layout  func(t testing.TB) *victim.Layout
	handle  string // symbol of the replay-handle page
	verdict Verdict
}

func crossCases() []crossCase {
	return []crossCase{
		{
			name:    "controlflow",
			layout:  func(testing.TB) *victim.Layout { return victim.ControlFlowSecret(true) },
			handle:  "handle",
			verdict: Leaky,
		},
		{
			name:    "singlesecret",
			layout:  func(testing.TB) *victim.Layout { return victim.SingleSecret(3, true) },
			handle:  "count",
			verdict: Leaky,
		},
		{
			name:    "loopsecret",
			layout:  func(testing.TB) *victim.Layout { return victim.LoopSecret([]byte{3, 1, 4, 1, 5}) },
			handle:  "handle",
			verdict: Leaky,
		},
		{
			name: "aes",
			layout: func(t testing.TB) *victim.Layout {
				v, err := victim.NewAESVictim([]byte("0123456789abcdef"), []byte("fedcba9876543210"))
				if err != nil {
					t.Fatal(err)
				}
				return v.Layout
			},
			// The pre-loop stack access (§4.4): arming rk itself would
			// starve the Td index chain, since every Td address
			// data-depends on the faulting rk loads.
			handle:  "stack",
			verdict: Leaky,
		},
		{
			name: "modexp",
			layout: func(t testing.TB) *victim.Layout {
				v, err := victim.NewModExpVictim(5, 0xb, 97, 4)
				if err != nil {
					t.Fatal(err)
				}
				return v.Layout
			},
			handle:  "handle",
			verdict: Leaky,
		},
		{
			name:    "rdrand",
			layout:  func(testing.TB) *victim.Layout { return victim.RdrandBias() },
			handle:  "handle",
			verdict: Leaky,
		},
		{
			name:    "ctcontrol",
			layout:  func(testing.TB) *victim.Layout { return victim.ConstantTime() },
			handle:  "handle",
			verdict: ProvenSafe,
		},
	}
}

func subjectFor(t testing.TB, c crossCase) *Subject {
	lay := c.layout(t)
	sub := NewSubject(lay)
	sub.Handle = lay.Sym(c.handle)
	return sub
}

func TestCrossValidateBuiltinVictims(t *testing.T) {
	for _, c := range crossCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			res, err := Verify(subjectFor(t, c), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != c.verdict {
				t.Fatalf("verdict = %s (%s), want %s", res.Verdict, res.Reason, c.verdict)
			}
			switch c.verdict {
			case Leaky:
				w := res.Witness
				if w == nil {
					t.Fatal("LEAKY verdict without witness")
				}
				if channelDigest(w.ProjA, w.Channel) == channelDigest(w.ProjB, w.Channel) {
					t.Fatalf("witness does not diverge on its claimed channel %s:\nA: %+v\nB: %+v",
						w.Channel, w.ProjA, w.ProjB)
				}
				if len(res.Sites) == 0 {
					t.Fatal("LEAKY verdict without abstract sites")
				}
			case ProvenSafe:
				cert := res.Certificate
				if cert == nil {
					t.Fatal("PROVEN-SAFE verdict without certificate")
				}
				if cert.Trials < 32 {
					t.Fatalf("certificate has %d trials, want >= 32", cert.Trials)
				}
			}
		})
	}
}

// Fence repair must turn the Fig. 5 (subnormal latency) and Fig. 6
// (port/latency branch) victims into PROVEN-SAFE programs.
func TestRepairBuiltinVictims(t *testing.T) {
	for _, name := range []string{"controlflow", "singlesecret"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var c crossCase
			for _, cc := range crossCases() {
				if cc.name == name {
					c = cc
				}
			}
			rr, err := Repair(subjectFor(t, c), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if rr.Inserted == 0 {
				t.Fatal("repair inserted no fences")
			}
			if rr.Result.Verdict != ProvenSafe {
				t.Fatalf("repaired %s = %s (%s), want PROVEN-SAFE",
					name, rr.Result.Verdict, rr.Result.Reason)
			}
			if rr.Result.Certificate == nil || rr.Result.Certificate.Trials < 32 {
				t.Fatalf("repaired %s lacks a full certificate: %+v", name, rr.Result.Certificate)
			}
		})
	}
}

// The verifier's handle auto-derivation must fall back to the layout's
// conventional symbol and stay consistent with an explicit address.
func TestSubjectHandleDefaults(t *testing.T) {
	lay := victim.ControlFlowSecret(true)
	sub := NewSubject(lay)
	if sub.Handle != lay.Sym("handle") {
		t.Fatalf("NewSubject handle = %#x, want %#x", sub.Handle, lay.Sym("handle"))
	}
	if got := sub.Handle; got == mem.Addr(0) {
		t.Fatal("handle not derived")
	}
}
