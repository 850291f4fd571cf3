package sanitizer

import (
	"microscope/analysis/sidechan"
	"microscope/sim/isa"
)

// secondaryChannel returns the additional channel op transmits over
// given its primary classification. A ctrl-guarded FP divide occupies
// the non-pipelined divider (the primary port-contention class
// sidechan.Transmit gives it) AND carries the subnormal-latency
// signature of whichever branch side executed — the paper's Fig. 5 and
// Fig. 6 observables coincide on one instruction, and the verifier's
// witness runs genuinely diverge on the latency projection. The
// sanitizer emits both events; the reconciliation classifies the extra
// latency finding as SecondaryChannel rather than a mismatch.
func secondaryChannel(op isa.Op, primary sidechan.Channel) (sidechan.Channel, bool) {
	if op == isa.OpFDiv && primary == sidechan.ChanPort {
		return sidechan.ChanLatency, true
	}
	return sidechan.ChanNone, false
}
