package experiments

import (
	"bytes"
	"testing"

	"microscope/attack/microscope"
	"microscope/attack/monitor"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/snapshot"
)

// fuzzRunCycles bounds the run of a machine restored from a damaged
// image.
const fuzzRunCycles = 20_000

// FuzzSnapshotDecodeRestore is the front-door fuzz target of the
// checkpoint format. It damages one warm checkpoint, of the control-flow
// victim a few thousand cycles into its Fig. 10 attack: the image is cut
// to keep bytes, then every 4-byte group of flips XORs its last byte
// into the image at the offset its first three name. The result is
// decoded, restored into a freshly booted rig and, when that succeeds,
// run for fuzzRunCycles. Decode and Restore may fail with an error;
// nothing may panic. The inputs stay small, so the fuzzer's
// minimization of new inputs is cheap.
func FuzzSnapshotDecodeRestore(f *testing.F) {
	cfg := cpu.DefaultConfig()
	rig, err := NewRig(cfg)
	if err != nil {
		f.Fatal(err)
	}
	vic, mon := victim.ControlFlowSecret(false), monitor.PortContention(64, 2)
	if err := rig.InstallVictim(vic); err != nil {
		f.Fatal(err)
	}
	if err := rig.AddMonitor(mon); err != nil {
		f.Fatal(err)
	}
	if err := rig.Module.Install(&microscope.Recipe{
		Name:           "fuzz",
		Victim:         rig.Victim,
		Handle:         vic.Sym("handle"),
		HandlerLatency: 2_000,
		MaxReplays:     8,
	}); err != nil {
		f.Fatal(err)
	}
	vic.Start(rig.Kernel, 0)
	mon.Start(rig.Kernel, 1)
	rig.Core.Run(4_000)
	cp, err := rig.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, cp.Machine); err != nil {
		f.Fatal(err)
	}
	image := buf.Bytes()
	f.Add(uint32(len(image)), []byte(nil))
	f.Add(uint32(len(image)/2), []byte(nil))
	f.Add(uint32(len(image)), []byte{0x10, 0x20, 0x00, 0xA5, 0xFF, 0x40, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, keep uint32, flips []byte) {
		img := bytes.Clone(image[:min(int(keep), len(image))])
		for i := 0; i+4 <= len(flips) && len(img) > 0; i += 4 {
			off := int(flips[i]) | int(flips[i+1])<<8 | int(flips[i+2])<<16
			img[off%len(img)] ^= flips[i+3]
		}
		m, err := snapshot.Decode(bytes.NewReader(img))
		if err != nil {
			return
		}
		rig, err := NewRig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rig.Restore(&Checkpoint{Machine: m, VictimPID: cp.VictimPID, MonitorPID: cp.MonitorPID, Config: cfg}); err != nil {
			return
		}
		if n := rig.Core.Run(fuzzRunCycles); n > fuzzRunCycles {
			t.Fatalf("ran %d cycles, budget %d", n, fuzzRunCycles)
		}
	})
}
