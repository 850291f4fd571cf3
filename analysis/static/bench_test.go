package static_test

import (
	"testing"

	"microscope/analysis/static"
	"microscope/analysis/verify"
	"microscope/attack/experiments"
)

// BenchmarkAnalyze runs the whole static pass (CFG, taint fixpoint,
// shadow walk, findings and transmit points) over each builtin victim.
func BenchmarkAnalyze(b *testing.B) {
	for _, tgt := range experiments.SanTargets() {
		tgt := tgt
		b.Run(tgt.Name, func(b *testing.B) {
			lay, err := tgt.Build()
			if err != nil {
				b.Fatal(err)
			}
			sec := verify.NewSubject(lay).Secrets
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := static.Analyze(lay.Name, lay.Prog, sec, static.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
