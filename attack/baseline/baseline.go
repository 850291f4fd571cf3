// Package baseline implements the prior attacks MicroScope is compared
// against in §2.4 and Table 1: the controlled side channel of Xu et
// al. [60] (page-fault sequences), Sneaky Page Monitoring [58]
// (accessed/dirty bits), and a noisy multi-run Prime+Probe in the style
// of the SGX cache attacks [9, 18]. They exist to make the paper's
// comparison measurable: page-granularity attacks are noiseless but
// coarse; cache attacks are fine-grained but need many runs — MicroScope
// is fine-grained, noiseless, and single-run.
package baseline

import (
	"slices"

	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

const (
	pageAVA  mem.Addr = 0x0080_0000
	pageBVA  mem.Addr = 0x0081_0000
	sharedVA mem.Addr = 0x0082_0000
)

const rw = mem.FlagUser | mem.FlagWritable

// pageSecretVictim touches pageA or pageB depending on the secret, then
// touches two lines of ONE shared page selected by a second, fine-grained
// secret bit — visible to cache attacks, invisible at page granularity.
func pageSecretVictim(pageSecret, lineSecret bool) *victim.Layout {
	target := pageAVA
	if pageSecret {
		target = pageBVA
	}
	line := int64(0)
	if lineSecret {
		line = 64
	}
	b := isa.NewBuilder().
		MovImm(isa.R1, int64(target)).
		Load(isa.R2, isa.R1, 0). // page-granular secret access
		MovImm(isa.R3, int64(sharedVA)).
		Load(isa.R4, isa.R3, line). // line-granular secret access (same page!)
		Halt()
	return &victim.Layout{
		Name: "pagesecret",
		Prog: b.MustBuild(),
		Symbols: map[string]mem.Addr{
			"pageA": pageAVA, "pageB": pageBVA, "shared": sharedVA,
		},
		Regions: []victim.Region{
			{Name: "pageA", VA: pageAVA, Size: mem.PageSize, Flags: rw},
			{Name: "pageB", VA: pageBVA, Size: mem.PageSize, Flags: rw},
			{Name: "shared", VA: sharedVA, Size: mem.PageSize, Flags: rw},
		},
	}
}

// ControlledChannelResult is the Xu et al. [60] attack outcome.
type ControlledChannelResult struct {
	// FaultVPNs is the observed page-fault sequence (the OS-visible
	// trace).
	FaultVPNs []uint64
	// PageSecretRecovered: the page-granular secret read off the trace.
	PageSecretRecovered bool
	PageSecretCorrect   bool
	// LineSecretVisible reports whether the traces for lineSecret=0/1
	// differ — they must NOT (page granularity cannot see lines).
	LineSecretVisible bool
}

// RunControlledChannel mounts the controlled side channel: unmap the
// victim's data pages, record the fault VPN sequence, recover the
// page-granular secret — and demonstrate the line-granular secret is
// invisible.
func RunControlledChannel(pageSecret bool) (*ControlledChannelResult, error) {
	trace := func(pageSecret, lineSecret bool) ([]uint64, error) {
		rig, err := platform.New(cpu.DefaultConfig())
		if err != nil {
			return nil, err
		}
		l := pageSecretVictim(pageSecret, lineSecret)
		// Register VMAs but do NOT map: every first touch faults and the
		// OS logs the VPN — the controlled channel.
		for _, reg := range l.Regions {
			rig.Kernel.AddVMA(rig.Victim, reg.VA, reg.VA+reg.Size, reg.Flags, reg.Name)
		}
		l.Start(rig.Kernel, 0)
		if err := rig.Run(10_000_000); err != nil {
			return nil, err
		}
		var vpns []uint64
		for _, f := range rig.Kernel.FaultLog() {
			vpns = append(vpns, f.VPN)
		}
		return vpns, nil
	}

	vpns, err := trace(pageSecret, false)
	if err != nil {
		return nil, err
	}
	res := &ControlledChannelResult{FaultVPNs: vpns}
	for _, v := range vpns {
		if v == mem.PageNum(pageBVA) {
			res.PageSecretRecovered = true
		}
	}
	res.PageSecretCorrect = res.PageSecretRecovered == pageSecret

	// Line secret: compare the trace above with the other line value's.
	other, err := trace(pageSecret, true)
	if err != nil {
		return nil, err
	}
	res.LineSecretVisible = !slices.Equal(vpns, other)
	return res, nil
}

// SPMResult is the Sneaky Page Monitoring [58] outcome: the same
// page-granular recovery, but via accessed bits, with zero AEXs.
type SPMResult struct {
	AccessedPages       []uint64
	PageSecretCorrect   bool
	VictimObservedFault bool
}

// RunSPM mounts Sneaky Page Monitoring: map everything eagerly, clear
// the A bits, run the victim, read the A bits back.
func RunSPM(pageSecret bool) (*SPMResult, error) {
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	proc := rig.Victim
	l := pageSecretVictim(pageSecret, false)
	if err := rig.InstallVictim(l); err != nil {
		return nil, err
	}
	for _, reg := range l.Regions {
		if err := proc.AddressSpace().ClearAccessedDirty(reg.VA); err != nil {
			return nil, err
		}
	}
	l.Start(rig.Kernel, 0)
	if err := rig.Run(10_000_000); err != nil {
		return nil, err
	}

	res := &SPMResult{
		VictimObservedFault: rig.Core.Context(0).Stats().PageFaults > 0,
	}
	secretSeen := false
	for _, reg := range l.Regions {
		e, _, err := proc.AddressSpace().LeafEntry(reg.VA)
		if err != nil {
			return nil, err
		}
		if e.Accessed() {
			res.AccessedPages = append(res.AccessedPages, mem.PageNum(reg.VA))
			if reg.VA == pageBVA {
				secretSeen = true
			}
		}
	}
	res.PageSecretCorrect = secretSeen == pageSecret
	return res, nil
}
