package victim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/kernel"
	"microscope/sim/mem"
)

const testScript = `
; plain comment
;; region data 0x400000 rw 2
;; region ro   0x402000 ro
;; init data+8 0xdeadbeef
;; init data+4096 77
;; symbol second data+4096
;; entry start
;; secret ro
;; secret-reg r5
;; secret-reg F2

        nop
start:  movi r1, 0x400000
        ld   r2, 8(r1)
        ld   r3, 4096(r1)
        halt
`

// wrapInitScript's init offset is 2^64-8: an offset+8 bound check wraps
// to 0 and lets the write index far past the region.
const wrapInitScript = ";; region data 0x600000 rw\n;; init data+0xfffffffffffffff8 1\nnop"

// hugeRegionScript declares a 16 TB region and initializes a word near
// its end: growing the initializer up to it would exhaust host memory.
const hugeRegionScript = ";; region data 0x600000 rw 4000000000\n;; init data+0xE8D4A50FF0 1\nnop"

// wrapRegionScript's region ends past 2^64: its mapping would wrap, so
// Install would map nothing.
const wrapRegionScript = ";; region r 0xfffffffffffff000 rw 2\nhalt"

// fallOffScript's control runs off the end of the program (no halt), so
// the core would refuse to load it.
const fallOffScript = ";; region handle 0x400000 rw\nmovi r1, 0x400000\nld r2, 0(r1)"

func TestParseScript(t *testing.T) {
	l, err := ParseScript("test", testScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Regions) != 2 {
		t.Fatalf("regions = %d", len(l.Regions))
	}
	if l.Regions[0].Name != "data" || l.Regions[1].Name != "ro" {
		t.Errorf("region order: %s, %s", l.Regions[0].Name, l.Regions[1].Name)
	}
	if l.Regions[0].Size != 2*mem.PageSize {
		t.Errorf("data region size = %d", l.Regions[0].Size)
	}
	if l.Regions[1].Flags&mem.FlagWritable != 0 {
		t.Error("ro region writable")
	}
	if l.Sym("second") != 0x400000+mem.PageSize {
		t.Errorf("symbol second = %#x", l.Sym("second"))
	}
	if l.Entry != 1 {
		t.Errorf("entry = %d, want 1 (label start)", l.Entry)
	}
	// Init bytes: little-endian 0xdeadbeef at offset 8.
	if l.Regions[0].Init[8] != 0xef || l.Regions[0].Init[11] != 0xde {
		t.Errorf("init bytes = % x", l.Regions[0].Init[8:12])
	}
	if got := l.SecretMems(); len(got) != 1 || got[0] != [2]uint64{0x402000, 0x403000} {
		t.Errorf("secret ranges = %#x, want the ro region", got)
	}
	if got := l.SecretRegs; len(got) != 2 || got[0] != isa.R5 || got[1] != isa.F0+2 {
		t.Errorf("secret registers = %v, want [r5 f2]", got)
	}
}

func TestParseScriptRunsEndToEnd(t *testing.T) {
	l, err := ParseScript("test", testScript)
	if err != nil {
		t.Fatal(err)
	}
	phys := mem.NewPhysMem(32 << 20)
	core := cpu.NewCore(cpu.DefaultConfig(), phys)
	k := kernel.New(kernel.DefaultConfig(), phys, core)
	proc, err := k.NewProcess("scripted")
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(0, proc)
	if err := l.Install(k, proc); err != nil {
		t.Fatal(err)
	}
	l.Start(k, 0)
	core.Run(1_000_000)
	ctx := core.Context(0)
	if !ctx.Halted() {
		t.Fatal("scripted victim did not halt")
	}
	if ctx.Reg(2) != 0xdeadbeef {
		t.Errorf("r2 = %#x", ctx.Reg(2))
	}
	if ctx.Reg(3) != 77 {
		t.Errorf("r3 = %d", ctx.Reg(3))
	}
}

func TestParseScriptErrors(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		errSub string
	}{
		{"unknown directive", ";; frobnicate x\nnop\nhalt", "unknown directive"},
		{"unaligned region", ";; region r 0x400010 rw\nnop", "not page aligned"},
		{"bad perms", ";; region r 0x400000 wx\nnop", "bad permissions"},
		{"dup region", ";; region r 0x400000 rw\n;; region r 0x401000 rw\nnop", "duplicate region"},
		{"init missing region", ";; init r+0 1\nnop", "before region"},
		{"init out of range", ";; region r 0x400000 rw\n;; init r+4090 1\nnop", "outside region"},
		{"init offset wraps", wrapInitScript, "outside region"},
		{"symbol missing region", ";; symbol s r+0\nnop", "before region"},
		{"bad entry", ";; entry nowhere\nnop\nhalt", "undefined"},
		{"entry past the end", ";; entry end\nhalt\nend:", "follows the last instruction"},
		{"empty program", ";; region r 0x400000 rw\n; nothing", "no instructions"},
		{"bad assembly", "frob r1\nhalt", "unknown mnemonic"},
		{"bad region pages", ";; region r 0x400000 rw zero\nnop", "bad page count"},
		{"region beyond physical memory", hugeRegionScript, "exceed the 64 MB of physical memory"},
		{"secret before its region", ";; secret s\n;; region s 0x400000 rw\nnop", "line 1: secret before region \"s\""},
		{"secret of no region", ";; region r 0x400000 rw\n;; secret nowhere\nnop", "line 2: secret before region \"nowhere\""},
		{"secret arity", ";; region r 0x400000 rw\n;; secret r r\nnop", "secret wants <region>"},
		{"secret-reg unknown register", ";; secret-reg x5\nnop", `bad register "x5"`},
		{"secret-reg out of range", ";; secret-reg r16\nnop", "register out of range"},
		{"secret-reg arity", ";; secret-reg\nnop", "secret-reg wants <reg>"},
		// 16,349 pages at 0x400000 and their 35 tables fill the 16,384
		// frames (TestInstallScriptFillingMemory in attack/platform).
		{"region one page past physical memory", ";; region r 0x400000 rw 16350\nnop", "need 16385 physical frames, the platform has 16384"},
		{"regions that fit alone but not together", ";; region a 0x400000 rw 9000\n;; region b 0x40000000 rw 9000\nnop", "need 18040 physical frames"},
		{"region ending at 2^64", ";; region r 0xfffffffffffff000 rw 1\nhalt", "region r: 1 pages at 0xfffffffffffff000 end past the top of the address space"},
		{"region wrapping past 2^64", wrapRegionScript, "region r: 2 pages at 0xfffffffffffff000 end past the top of the address space"},
		{"control falls off the end", fallOffScript, "victim: script t: static: instr 1 (ld r2, 0(r1)): control falls off the end"},
	}
	for _, c := range cases {
		_, err := ParseScript("t", c.src)
		if err == nil || !strings.Contains(err.Error(), c.errSub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.errSub)
		}
	}
}

// installFrames counts the frames Install takes: distinct pages, once
// however many regions cover them, and the page tables that map them,
// which addresses equal in their low 48 bits share.
func TestInstallFrames(t *testing.T) {
	for _, src := range []string{
		";; region a 0x400000 rw",
		";; region a 0x400000 rw 3\n;; region b 0x401000 ro 4",
		";; region a 0x5ff000 rw 2",
		";; region a 0x3ffff000 rw 2\n;; region b 0x7ffff000 rw",
		";; region a 0x400000 rw\n;; region b 0x1000000400000 rw",
		";; region a 0xfffffffff000 rw 2",
		";; region a 0x400000 rw\n;; region b 0x8000000000 rw\n;; region c 0x8000200000 rw",
		";; region a 0xffffffffffffe000 rw", // the last page below 2^64
	} {
		l, err := ParseScript("frames", src+"\nhalt")
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		r := newRig(t)
		if err := l.Install(r.k, r.proc); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got, want := installFrames(l.Regions), r.core.Phys().AllocatedFrames(); got != want {
			t.Errorf("%q: installFrames = %d, Install took %d", src, got, want)
		}
	}
}

// FuzzParseScript feeds the victim-script parser, which `microscope
// lab` and cmd/mscan run on user files, arbitrary text. ParseScript
// returns a layout or an error, never both and never a panic, every
// region it accepts holds its initializer, every secret it accepts
// names a region, and every script it accepts runs: its program loads
// and every page of every region translates once installed.
func FuzzParseScript(f *testing.F) {
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "asmlab", "victim.s"))
	if err != nil {
		f.Fatal(err)
	}
	secretFirst := ";; secret s\n;; region s 0x400000 rw\n;; secret-reg f15\nnop"
	for _, seed := range []string{string(example), testScript, wrapInitScript, hugeRegionScript, secretFirst,
		wrapRegionScript, fallOffScript} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		l, err := ParseScript("fuzz", src)
		if (l == nil) == (err == nil) {
			t.Fatalf("ParseScript returned layout %v with error %v", l, err)
		}
		if l == nil {
			return
		}
		for _, r := range l.Regions {
			if uint64(len(r.Init)) > r.Size {
				t.Fatalf("region %s: %d init bytes in a %d-byte region", r.Name, len(r.Init), r.Size)
			}
		}
		// Every secret names a region, so this cannot panic.
		l.SecretMems()
		r := newRig(t)
		if err := l.Install(r.k, r.proc); err != nil {
			t.Fatalf("accepted script does not install: %v", err)
		}
		for _, reg := range l.Regions {
			for va := reg.VA; va < reg.VA+reg.Size; va += mem.PageSize {
				if _, err := r.proc.AddressSpace().Translate(va); err != nil {
					t.Fatalf("region %s: page %#x does not translate: %v", reg.Name, va, err)
				}
			}
		}
		if err := r.core.Context(0).LoadProgram(l.Prog, l.Entry); err != nil {
			t.Fatalf("accepted script does not load: %v", err)
		}
	})
}

func TestSplitRef(t *testing.T) {
	name, off, err := splitRef("data+128")
	if err != nil || name != "data" || off != 128 {
		t.Errorf("splitRef = %q,%d,%v", name, off, err)
	}
	name, off, err = splitRef("data")
	if err != nil || name != "data" || off != 0 {
		t.Errorf("splitRef = %q,%d,%v", name, off, err)
	}
	if _, _, err := splitRef("data+xyz"); err == nil {
		t.Error("bad offset accepted")
	}
}
