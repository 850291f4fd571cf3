package sidechan

import (
	"fmt"

	"microscope/sim/isa"
)

// This file extends the Table 1 taxonomy from whole attacks down to
// individual instructions: every isa.Op is assigned exactly one primary
// leak-channel class, the microarchitectural resource whose
// secret-dependent footprint a MicroScope replay amplifies. The static
// analyzer (analysis/static) uses these classes to label its findings;
// the classification mirrors the paper's attack suite — cache-set
// footprints (§5/§6.2 AES), execution-port contention on the
// non-pipelined divider (§6.1, Fig. 6), data-dependent latency from the
// FP subnormal microcode assist (§5, Fig. 5), and architectural
// randomness replay (§7.2 RDRAND bias).

// Channel is a leak-channel class.
type Channel int

// Declared channel classes.
const (
	// ChanNone: the op's execution leaves no secret-distinguishable
	// footprint on shared resources (fixed-latency ALU work, fences,
	// control transfers, transaction markers).
	ChanNone Channel = iota
	// ChanCacheSet: the op touches data memory, so its address selects a
	// cache set/line — the Prime+Probe / Flush+Reload footprint the AES
	// T-table attack reads.
	ChanCacheSet
	// ChanPort: the op occupies the non-pipelined divider, observable by
	// an SMT sibling as issue-port contention (the Fig. 6 channel).
	ChanPort
	// ChanLatency: the op's own latency is data-dependent — the FP
	// subnormal microcode assist the Fig. 5 attack times.
	ChanLatency
	// ChanRandom: the op draws fresh architectural randomness on every
	// replay, so squash-and-retry biases its retired value (§7.2).
	ChanRandom
	// NumChannels is the number of declared classes.
	NumChannels int = iota
)

// String returns the report label of the channel class.
func (c Channel) String() string {
	switch c {
	case ChanNone:
		return "none"
	case ChanCacheSet:
		return "cache-set"
	case ChanPort:
		return "port-contention"
	case ChanLatency:
		return "latency"
	case ChanRandom:
		return "random-replay"
	}
	return fmt.Sprintf("channel(%d)", int(c))
}

// MarshalText renders the channel for JSON/text reports.
func (c Channel) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a report label, so JSON reports round-trip.
func (c *Channel) UnmarshalText(b []byte) error {
	for ch := Channel(0); int(ch) < NumChannels; ch++ {
		if ch.String() == string(b) {
			*c = ch
			return nil
		}
	}
	return fmt.Errorf("sidechan: unknown channel %q", b)
}

// opChannels is the total Op -> primary Channel map. Ops absent from the
// map default to ChanNone; the taxonomy test asserts every defined op is
// listed here explicitly so new ops cannot go silently unclassified.
var opChannels = map[isa.Op]Channel{
	isa.OpNop:      ChanNone,
	isa.OpMovImm:   ChanNone,
	isa.OpMov:      ChanNone,
	isa.OpAdd:      ChanNone,
	isa.OpAddImm:   ChanNone,
	isa.OpSub:      ChanNone,
	isa.OpAnd:      ChanNone,
	isa.OpAndImm:   ChanNone,
	isa.OpOr:       ChanNone,
	isa.OpXor:      ChanNone,
	isa.OpShl:      ChanNone,
	isa.OpShlImm:   ChanNone,
	isa.OpShr:      ChanNone,
	isa.OpShrImm:   ChanNone,
	isa.OpMul:      ChanNone, // pipelined; fixed MulLat
	isa.OpDiv:      ChanPort, // non-pipelined divider occupancy
	isa.OpFMov:     ChanNone,
	isa.OpFAdd:     ChanNone, // pipelined; fixed FAddLat
	isa.OpFMul:     ChanNone,
	isa.OpFDiv:     ChanLatency, // subnormal microcode assist (also divider port)
	isa.OpFLoadImm: ChanNone,
	isa.OpLoad:     ChanCacheSet,
	isa.OpLoad32:   ChanCacheSet,
	isa.OpLoadF:    ChanCacheSet,
	isa.OpStore:    ChanCacheSet,
	isa.OpStore32:  ChanCacheSet,
	isa.OpStoreF:   ChanCacheSet,
	isa.OpBeq:      ChanNone, // BTB channels are below this sim's fidelity
	isa.OpBne:      ChanNone,
	isa.OpBlt:      ChanNone,
	isa.OpBge:      ChanNone,
	isa.OpJmp:      ChanNone,
	isa.OpRdtsc:    ChanNone,
	isa.OpRdrand:   ChanRandom,
	isa.OpFence:    ChanNone,
	isa.OpTxBegin:  ChanNone,
	isa.OpTxEnd:    ChanNone,
	isa.OpTxAbort:  ChanNone,
	isa.OpHalt:     ChanNone,
}

// OpChannel returns the primary leak-channel class of op. The mapping is
// total over defined ops and defaults to ChanNone for undefined ones.
func OpChannel(op isa.Op) Channel { return opChannels[op] }

// Transmit classifies an instruction by the taint of its inputs as it
// executes: the channel its footprint transmits over, whether the flow
// is implicit (control dependence only), and whether it transmits at
// all. The static pass (analysis/static) and SpecSan (sim/sanitizer)
// both call it, so a static and a dynamic finding at one PC carry the
// same channel label. addrT is the taint of a memory op's address
// operand, dataT the union over the data operands, ctrlT the
// control-dependence taint, and taintRdrand whether every RDRAND draw
// counts as secret.
//
// An explicit flow transmits over the op's channel: an RDRAND draw under
// taintRdrand, a memory op on a tainted address, a divide on a tainted
// operand. Under control taint alone, any op with a channel transmits
// implicitly: its footprint shows which side of a secret branch ran. A
// divide shows that by occupying the non-pipelined divider, so an
// implicit FP divide transmits over the port, not through its latency.
func Transmit(op isa.Op, addrT, dataT, ctrlT, taintRdrand bool) (ch Channel, implicit, ok bool) {
	ch = opChannels[op]
	switch {
	case ch == ChanNone:
		return ChanNone, false, false
	case ch == ChanRandom && taintRdrand,
		ch == ChanCacheSet && addrT,
		(ch == ChanPort || ch == ChanLatency) && dataT:
		return ch, false, true
	case ctrlT:
		if ch == ChanLatency {
			ch = ChanPort
		}
		return ch, true, true
	}
	return ChanNone, false, false
}

// OpChannelDeclared reports whether op has an explicit entry in the
// taxonomy (as opposed to falling through to the ChanNone default).
func OpChannelDeclared(op isa.Op) bool {
	_, ok := opChannels[op]
	return ok
}
