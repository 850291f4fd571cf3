package static_test

// Cross-validation: the static scanner must flag the same program points
// the dynamic experiments attack (attack/experiments), for
// every victim family, and stay silent on a constant-time control
// program. This is the tentpole acceptance test: it imports the victims
// and the core config, so it lives in an external package to keep
// analysis/static free of sim/cpu (which imports it back for load-time
// validation).

import (
	"testing"

	"microscope/analysis/sidechan"
	"microscope/analysis/static"
	"microscope/analysis/verify"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/isa"
)

func analyzeLayout(t *testing.T, l *victim.Layout) *static.Report {
	t.Helper()
	r, err := static.Analyze(l.Name, l.Prog, verify.NewSubject(l).Secrets, static.DefaultConfig())
	if err != nil {
		t.Fatalf("analyze %s: %v", l.Name, err)
	}
	return r
}

// wantChannelAt asserts a finding with the given channel at instruction
// index i.
func wantChannelAt(t *testing.T, r *static.Report, i int, ch sidechan.Channel, what string) {
	t.Helper()
	for _, f := range r.FindingsAt(i) {
		if f.Channel == ch {
			return
		}
	}
	t.Errorf("%s: no %s finding at instruction %d (findings there: %+v)",
		what, ch, i, r.FindingsAt(i))
}

// The window constant is duplicated from the core config to break an
// import cycle; this is the guard that keeps them equal.
func TestDefaultWindowMatchesCore(t *testing.T) {
	if got := cpu.DefaultConfig().ROBSize; static.DefaultROBWindow != got {
		t.Fatalf("static.DefaultROBWindow = %d, cpu ROBSize = %d",
			static.DefaultROBWindow, got)
	}
}

// AES (Fig. 8a): the dynamic cache-set attack monitors the Td-table
// loads; the scanner must flag every one of them as a cache-set leak,
// and must not flag the key-schedule loads it uses as replay handles.
func TestCrossValidateAES(t *testing.T) {
	key := []byte("0123456789abcdef")
	ct := []byte("fedcba9876543210")
	v, err := victim.NewAESVictim(key, ct)
	if err != nil {
		t.Fatal(err)
	}
	r := analyzeLayout(t, v.Layout)
	for id, idx := range v.TdLoads {
		wantChannelAt(t, r, idx, sidechan.ChanCacheSet,
			"aes Td load "+fmtTriple(id))
	}
	for id, idx := range v.RKLoads {
		if fs := r.FindingsAt(idx); len(fs) != 0 {
			t.Errorf("aes rk load %v (handle) flagged: %+v", id, fs)
		}
	}
}

func fmtTriple(id [3]int) string {
	return string(rune('0'+id[0])) + "/" + string(rune('0'+id[1])) + "/" + string(rune('0'+id[2]))
}

// ModExp: the dynamic attack distinguishes exponent bits by whether the
// per-iteration probe line is touched; every transmit load is
// control-dependent on the secret exponent and must be flagged.
func TestCrossValidateModExp(t *testing.T) {
	v, err := victim.NewModExpVictim(5, 0xb, 97, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := analyzeLayout(t, v.Layout)
	for it := 0; it < v.Bits; it++ {
		name := "transmit" + string(rune('0'+it))
		wantChannelAt(t, r, v.Mark(name), sidechan.ChanCacheSet, "modexp "+name)
	}
}

// SingleSecret (Fig. 5): the subnormal-latency attack times the FP
// divide after the count++ handle.
func TestCrossValidateSingleSecret(t *testing.T) {
	l := victim.SingleSecret(3, true)
	r := analyzeLayout(t, l)
	fs := r.FindingsAt(l.Mark("transmit"))
	if len(fs) == 0 {
		t.Fatal("singlesecret transmit divide not flagged")
	}
	f := fs[0]
	if f.Channel != sidechan.ChanLatency || f.Severity != static.SevHigh {
		t.Fatalf("singlesecret transmit = %+v, want high-severity latency", f)
	}
	if f.Handle > l.Mark("transmit") {
		t.Fatalf("handle %d is younger than the transmit", f.Handle)
	}
}

// ControlFlowSecret (Fig. 6): the port-contention attack distinguishes
// the divide arm from the multiply arm; the divides must be flagged as
// port findings, the multiplies (no secret footprint of their own) not.
func TestCrossValidateControlFlow(t *testing.T) {
	l := victim.ControlFlowSecret(true)
	r := analyzeLayout(t, l)
	wantChannelAt(t, r, l.Mark("div0"), sidechan.ChanPort, "controlflow div0")
	wantChannelAt(t, r, l.Mark("div1"), sidechan.ChanPort, "controlflow div1")
	for _, m := range []string{"mul0", "mul1"} {
		if fs := r.FindingsAt(l.Mark(m)); len(fs) != 0 {
			t.Errorf("controlflow %s flagged: %+v", m, fs)
		}
	}
}

// LoopSecret (Fig. 4b): the per-iteration transmit load indexes the
// probe array by the secret value.
func TestCrossValidateLoopSecret(t *testing.T) {
	l := victim.LoopSecret([]byte{3, 1, 4, 1, 5})
	r := analyzeLayout(t, l)
	wantChannelAt(t, r, l.Mark("transmit"), sidechan.ChanCacheSet, "loopsecret transmit")
	if fs := r.FindingsAt(l.Mark("handle")); len(fs) != 0 {
		t.Errorf("loopsecret handle flagged: %+v", fs)
	}
}

// RdrandBias (§7.2): the draw itself is the random-replay finding, and
// the bit-indexed transmit load rides along as a cache-set finding.
func TestCrossValidateRdrandBias(t *testing.T) {
	l := victim.RdrandBias()
	r := analyzeLayout(t, l)
	wantChannelAt(t, r, l.Mark("rdrand"), sidechan.ChanRandom, "rdrand draw")
	wantChannelAt(t, r, l.Mark("transmit"), sidechan.ChanCacheSet, "rdrand transmit")
}

// A constant-time straight-line program — secret loaded, combined with
// arithmetic whose footprint is data-independent, stored to a fixed
// address — must produce zero findings even though it handles secrets.
func TestCrossValidateConstantTimeControl(t *testing.T) {
	const secretVA = 0x0041_0000 // same page the simple victims use
	b := isa.NewBuilder().
		MovImm(isa.R1, secretVA).
		MovImm(isa.R2, 0x0044_0000).
		Load(isa.R3, isa.R1, 0). // secret
		Load(isa.R4, isa.R1, 8). // secret
		Add(isa.R5, isa.R3, isa.R4).
		Xor(isa.R5, isa.R5, isa.R3).
		ShlImm(isa.R5, isa.R5, 1).
		Mul(isa.R5, isa.R5, isa.R4).
		Store(isa.R5, isa.R2, 0). // fixed public address
		Halt()
	sec := static.Secrets{Mems: []static.MemRange{{Lo: secretVA, Hi: secretVA + 4096}}}
	r, err := static.Analyze("control", b.MustBuild(), sec, static.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.HasFindings() {
		t.Fatalf("constant-time control program flagged: %+v", r.Findings)
	}
}
