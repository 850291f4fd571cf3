package tlb

import "testing"

// BenchmarkTLBRestore rewinds a TLB complex between a warm image (a
// victim's code, data and stack pages) and the dirtied image a trial
// leaves behind. One op is both restores.
func BenchmarkTLBRestore(b *testing.B) {
	u := NewUnit()
	for vpn := uint64(0x400); vpn < 0x420; vpn++ {
		u.InsertData(tr(vpn, vpn+0x1000, 1))
		u.InsertInstr(tr(vpn+0x100, vpn+0x2000, 1))
	}
	warm := u.Snapshot()
	for vpn := uint64(0x8000); vpn < 0x8100; vpn++ {
		u.InsertData(tr(vpn, vpn, 1))
	}
	dirty := u.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := u.Restore(dirty); err != nil {
			b.Fatal(err)
		}
		if err := u.Restore(warm); err != nil {
			b.Fatal(err)
		}
	}
}
