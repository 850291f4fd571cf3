package experiments

import (
	"reflect"
	"testing"

	"microscope/attack/microscope"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// TestAblations pins the ablation table of EXPERIMENTS.md: each replay-
// window knob DESIGN.md §6 lists, measured at two or more settings.
// The values are exact simulated outcomes, so a timing-model change that
// moves one updates that table in the same change.
func TestAblations(t *testing.T) {
	cases := []struct {
		name    string
		measure func(t *testing.T) []float64
		want    []float64
	}{{
		// §4.1.2: 1-4 uncached page-table levels tune the victim-start-
		// to-fault delay, and with it the replay window, from a few
		// hundred cycles to over one thousand.
		name: "walk length",
		measure: func(t *testing.T) []float64 {
			var out []float64
			for levels := 1; levels <= 4; levels++ {
				delay := firstFault(t, cpu.DefaultConfig(), victim.ControlFlowSecret(false), levels, func(*Rig) {})
				out = append(out, float64(delay))
			}
			return out
		},
		want: []float64{567, 841, 1116, 1391},
	}, {
		// Walk cycles of a sibling page with the page-walk cache on and
		// off: the PWC short-circuits the upper levels.
		name: "PWC",
		measure: func(t *testing.T) []float64 {
			cfg := cpu.DefaultConfig()
			on := coldWalkCycles(t, cfg)
			cfg.PWCSize = 0
			return []float64{float64(on), float64(coldWalkCycles(t, cfg))}
		},
		want: []float64{564, 1389},
	}, {
		// Fig. 10 separation (div-side over mul-side over-threshold
		// samples) at divider latency 12 and 48: the port channel's
		// separability scales with divider occupancy.
		name: "divider latency",
		measure: func(t *testing.T) []float64 {
			var out []float64
			for _, lat := range []int{12, 48} {
				cfg := DefaultFig10Config()
				cfg.Samples = 1500
				res, err := RunFig10WithCore(cfg, func(c *cpu.Config) {
					c.DivLat = lat
					c.FDivLat = lat
				})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res.SeparationX)
			}
			return out
		},
		want: []float64{5, 24},
	}, {
		// §4.1.1: probe lines touched in one replay window with a 16- and
		// a 192-entry ROB, which bounds the speculative window.
		name: "ROB size",
		measure: func(t *testing.T) []float64 {
			var out []float64
			for _, size := range []int{16, 192} {
				cfg := cpu.DefaultConfig()
				cfg.ROBSize = size
				// 12 iterations, each touching one secret-indexed line.
				l := victim.LoopSecret([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
				addrs := make([]mem.Addr, 64)
				for i := range addrs {
					addrs[i] = l.Sym("probe") + mem.Addr(i)*64
				}
				var cached float64
				firstFault(t, cfg, l, 0, func(rig *Rig) {
					prs, err := rig.Module.ProbeAddrs(rig.Victim, addrs)
					if err != nil {
						t.Fatal(err)
					}
					for _, pr := range prs {
						if pr.Level != 4 { // 4 is memory
							cached++
						}
					}
				})
				out = append(out, cached)
			}
			return out
		},
		want: []float64{1, 12},
	}, {
		// §6.1: div-side monitor samples over threshold, of 1,500, with a
		// 2k- and a 20k-cycle handler (15.33‰ vs 2.0‰). Most samples land
		// while the handler runs, so a longer one dilutes the count.
		name: "handler latency",
		measure: func(t *testing.T) []float64 {
			var out []float64
			for _, lat := range []uint64{2_000, 20_000} {
				cfg := DefaultFig10Config()
				cfg.Samples = 1500
				cfg.HandlerLatency = lat
				res, err := RunFig10(cfg)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, float64(res.DivOver))
			}
			return out
		},
		want: []float64{23, 3},
	}}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got := c.measure(t); !reflect.DeepEqual(got, c.want) {
				t.Errorf("got %v, want %v", got, c.want)
			}
		})
	}
}

// firstFault mounts a one-replay recipe on l's handle, with walkLevels
// page-table levels served from memory (0: all), runs onFault at the
// fault, then releases the victim and runs it to completion. It returns
// the cycles from victim start to the fault.
func firstFault(t *testing.T, cfg cpu.Config, l *victim.Layout, walkLevels int, onFault func(*Rig)) uint64 {
	t.Helper()
	rig, err := NewRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.InstallVictim(l); err != nil {
		t.Fatal(err)
	}
	var faultCycle uint64
	rec := &microscope.Recipe{
		Name: "ablation", Victim: rig.Victim, Handle: l.Sym("handle"),
		WalkLevels: walkLevels, MaxReplays: 1,
		OnReplay: func(ev microscope.Event) microscope.Decision {
			faultCycle = ev.Cycle
			onFault(rig)
			return microscope.Release
		},
	}
	if err := rig.Module.Install(rec); err != nil {
		t.Fatal(err)
	}
	start := rig.Core.Cycle()
	l.Start(rig.Kernel, 0)
	if err := rig.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return faultCycle - start
}

// coldWalkCycles times a TLB-missing load of a sibling page after the
// caches were flushed but the PWC, when enabled, still holds the upper
// page-table levels from a walk of the first page.
func coldWalkCycles(t *testing.T, cfg cpu.Config) uint64 {
	t.Helper()
	phys := mem.NewPhysMem(32 << 20)
	core := cpu.NewCore(cfg, phys)
	as, err := mem.NewAddressSpace(phys, 1)
	if err != nil {
		t.Fatal(err)
	}
	core.Context(0).SetAddressSpace(as)
	va := mem.Addr(0x40_0000)
	for _, page := range []mem.Addr{va, va + mem.PageSize} {
		if _, err := as.MapNew(page, mem.FlagUser|mem.FlagWritable); err != nil {
			t.Fatal(err)
		}
	}
	warm := isa.NewBuilder().
		MovImm(isa.R1, int64(va)).
		Load(isa.R2, isa.R1, 0).
		Halt().MustBuild()
	core.Context(0).SetProgram(warm, 0)
	core.Run(1_000_000)
	core.Hierarchy().FlushAll()
	probe := isa.NewBuilder().
		MovImm(isa.R1, int64(va+mem.PageSize)).
		Rdtsc(isa.R7).
		Load(isa.R2, isa.R1, 0).
		Mov(isa.R3, isa.R2). // dependent: orders the closing rdtsc
		Rdtsc(isa.R8).
		Halt().MustBuild()
	core.Context(0).SetProgram(probe, 0)
	core.Run(1_000_000)
	return core.Context(0).Reg(isa.R8) - core.Context(0).Reg(isa.R7)
}
