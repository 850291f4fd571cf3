package cpu

import (
	"testing"

	"microscope/sim/mem"
)

var coreSink *Core

// BenchmarkNewCore is the per-boot cost of the core's microarchitectural
// state (caches, TLBs, PWC, ROBs), which the verifier pays on every
// differential trial.
func BenchmarkNewCore(b *testing.B) {
	phys := mem.NewPhysMem(16 << 20)
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coreSink = NewCore(cfg, phys)
	}
}
