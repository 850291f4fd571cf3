package sidechan

import (
	"testing"

	"microscope/sim/isa"
)

// TestOpChannelTotal asserts the instruction-level taxonomy is total and
// unambiguous: every defined isa.Op has exactly one explicitly declared
// channel class, and that class is one of the declared constants. Adding
// an op to the ISA without classifying it fails here.
func TestOpChannelTotal(t *testing.T) {
	for i := 0; i < isa.OpCount; i++ {
		op := isa.Op(i)
		if !op.Valid() {
			t.Fatalf("op %d inside OpCount is not Valid()", i)
		}
		if !OpChannelDeclared(op) {
			t.Errorf("op %s (%d) has no declared channel class", op, i)
			continue
		}
		c := OpChannel(op)
		if c < 0 || int(c) >= NumChannels {
			t.Errorf("op %s maps to out-of-range channel %d", op, int(c))
		}
	}
	// No stale entries for ops outside the ISA.
	if len(opChannels) != isa.OpCount {
		t.Errorf("taxonomy has %d entries, ISA has %d ops", len(opChannels), isa.OpCount)
	}
}

// TestOpChannelConsistency pins the classification the attacks rely on.
func TestOpChannelConsistency(t *testing.T) {
	for i := 0; i < isa.OpCount; i++ {
		op := isa.Op(i)
		c := OpChannel(op)
		if op.IsMem() && c != ChanCacheSet {
			t.Errorf("memory op %s classified %s, want %s", op, c, ChanCacheSet)
		}
		if !op.IsMem() && c == ChanCacheSet {
			t.Errorf("non-memory op %s classified %s", op, c)
		}
	}
	if c := OpChannel(isa.OpDiv); c != ChanPort {
		t.Errorf("div classified %s, want %s", c, ChanPort)
	}
	if c := OpChannel(isa.OpFDiv); c != ChanLatency {
		t.Errorf("fdiv classified %s, want %s", c, ChanLatency)
	}
	if c := OpChannel(isa.OpRdrand); c != ChanRandom {
		t.Errorf("rdrand classified %s, want %s", c, ChanRandom)
	}
}

// TestChannelString ensures every declared class has a distinct label
// (reports key findings by this string).
func TestChannelString(t *testing.T) {
	seen := map[string]Channel{}
	for c := Channel(0); int(c) < NumChannels; c++ {
		s := c.String()
		if s == "" {
			t.Errorf("channel %d has empty label", int(c))
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("channels %d and %d share label %q", int(prev), int(c), s)
		}
		seen[s] = c
	}
}

// TestTransmitTotalOverOps: Transmit agrees with the taxonomy for every
// defined op. An op with a channel transmits under some taint, and an op
// without one never does. An explicit flow transmits over the op's own
// channel; an implicit one over the same channel, except that a divide
// shows through the port.
func TestTransmitTotalOverOps(t *testing.T) {
	for i := 0; i < isa.OpCount; i++ {
		op := isa.Op(i)
		taxo := OpChannel(op)
		transmits := false
		for _, addrT := range []bool{false, true} {
			for _, dataT := range []bool{false, true} {
				for _, ctrlT := range []bool{false, true} {
					_, _, ok := Transmit(op, addrT, dataT, ctrlT, true)
					transmits = transmits || ok
				}
			}
		}
		if want := taxo != ChanNone; transmits != want {
			t.Errorf("%s: transmits=%v but taxonomy channel is %s", op, transmits, taxo)
		}
		// Every channel-bearing op but rdrand (whose trigger is the draw
		// itself, not operand taint) fires on tainted operands.
		ch, implicit, ok := Transmit(op, true, true, false, false)
		switch {
		case ok && (implicit || ch != taxo):
			t.Errorf("%s: tainted operands give (%s, implicit=%v), want (%s, explicit)", op, ch, implicit, taxo)
		case !ok && taxo != ChanNone && op != isa.OpRdrand:
			t.Errorf("%s: taxonomy channel %s but tainted operands do not transmit", op, taxo)
		}
		want := taxo
		if want == ChanLatency {
			want = ChanPort
		}
		ch, implicit, ok = Transmit(op, false, false, true, false)
		if ok != (taxo != ChanNone) || ok && (!implicit || ch != want) {
			t.Errorf("%s: control taint gives (%s, implicit=%v, ok=%v), want (%s, implicit)", op, ch, implicit, ok, want)
		}
	}
}

// With TaintRdrand off, rdrand must still be flagged when control-
// dependent on a secret, and only then.
func TestTransmitRdrandModes(t *testing.T) {
	if ch, _, ok := Transmit(isa.OpRdrand, false, false, false, false); ok {
		t.Errorf("untainted rdrand with TaintRdrand=false classified as %s", ch)
	}
	ch, implicit, ok := Transmit(isa.OpRdrand, false, false, true, false)
	if !ok || !implicit || ch != ChanRandom {
		t.Errorf("ctrl-dependent rdrand: got (%s, implicit=%v, ok=%v), want (random-replay, true, true)", ch, implicit, ok)
	}
	if ch, implicit, ok := Transmit(isa.OpRdrand, false, false, false, true); !ok || implicit || ch != ChanRandom {
		t.Errorf("rdrand with TaintRdrand: got (%s, implicit=%v, ok=%v), want (random-replay, false, true)", ch, implicit, ok)
	}
}
