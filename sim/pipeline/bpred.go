package pipeline

// Predictor is a per-context branch predictor: a table of 2-bit saturating
// counters for direction plus a branch target buffer. SGX-style defenses
// flush it at the enclave boundary (paper footnote 2 / [12]); MicroScope
// side-steps that flush, which the attack/victim tests demonstrate.
//
// The tables are allocated by the first Update. Until then they read as
// all zero (every branch not taken, no BTB target), which is what
// zeroed tables would answer, so a context that never resolves a branch
// costs only the predictor header.
type Predictor struct {
	counters []uint8 // 2-bit saturating, 0..3; >=2 predicts taken; nil until the first Update
	btb      []btbEntry
	mask     int //simlint:snapexempt derived geometry: table size - 1, set at construction; snapshots restore into a same-size predictor

	// Statistics.
	Lookups     uint64
	Mispredicts uint64
}

type btbEntry struct {
	valid  bool
	pc     int
	target int
}

// NewPredictor returns a predictor with 2^bits entries. It allocates no
// table; the first Update does.
func NewPredictor(bits int) *Predictor {
	return &Predictor{mask: 1<<bits - 1}
}

// allocate gives the predictor its zeroed tables.
func (bp *Predictor) allocate() {
	bp.counters = make([]uint8, bp.mask+1)
	bp.btb = make([]btbEntry, bp.mask+1)
}

// Predict returns the predicted direction and target for the conditional
// branch at pc. When the BTB has no target, the predictor falls back to
// not-taken (fetch continues at pc+1).
func (bp *Predictor) Predict(pc int) (taken bool, target int) {
	bp.Lookups++
	if bp.counters == nil {
		return false, pc + 1
	}
	i := pc & bp.mask
	taken = bp.counters[i] >= 2
	if e := bp.btb[i]; e.valid && e.pc == pc {
		target = e.target
	} else {
		taken = false
		target = pc + 1
	}
	return taken, target
}

// PredictDirection returns only the predicted direction for the branch at
// pc. The simulated ISA's branches carry their target in the instruction,
// so the fetch engine needs no BTB lookup for direct branches.
func (bp *Predictor) PredictDirection(pc int) bool {
	bp.Lookups++
	return bp.counters != nil && bp.counters[pc&bp.mask] >= 2
}

// Update trains the predictor with the resolved outcome.
func (bp *Predictor) Update(pc int, taken bool, target int) {
	if bp.counters == nil {
		bp.allocate()
	}
	i := pc & bp.mask
	if taken {
		if bp.counters[i] < 3 {
			bp.counters[i]++
		}
		bp.btb[i] = btbEntry{valid: true, pc: pc, target: target}
	} else if bp.counters[i] > 0 {
		bp.counters[i]--
	}
}

// RecordMispredict bumps the misprediction counter.
func (bp *Predictor) RecordMispredict() { bp.Mispredicts++ }

// Flush resets all prediction state to not-taken / empty BTB, as done at
// enclave entry by the countermeasure in [12]. Flushing puts the predictor
// into a *known* state — which §4.2.3 notes actually helps the attacker.
func (bp *Predictor) Flush() {
	for i := range bp.counters {
		bp.counters[i] = 0
	}
	for i := range bp.btb {
		bp.btb[i] = btbEntry{}
	}
}

// Prime trains the branch at pc toward the given direction until the
// counter saturates, modelling the adversary's predictor priming (§4.2.3).
func (bp *Predictor) Prime(pc int, taken bool, target int) {
	for range 4 {
		bp.Update(pc, taken, target)
	}
}
