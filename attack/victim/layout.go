// Package victim provides the victim programs the paper attacks, each
// packaged as a Layout: an ISA program plus the data regions and named
// symbols (replay handles, pivots, secret locations) an attack recipe
// needs.
//
// Victims provided:
//   - SingleSecret (Fig. 5): getSecret's count++ replay handle and a
//     floating-point divide whose subnormal operand is the secret.
//   - ControlFlowSecret (Fig. 6): a secret-dependent branch whose sides
//     execute two multiplies or two divides — the port-contention target.
//   - LoopSecret (Fig. 4b): per-iteration secrets with a pivot.
//   - AES (Fig. 8a): T-table AES decryption with Td0–Td3 and rk on
//     distinct pages.
package victim

import (
	"fmt"

	"microscope/sim/isa"
	"microscope/sim/kernel"
	"microscope/sim/mem"
)

// PlatformMemBytes is the physical memory of the platform victims are
// installed on (experiments.NewRig and the verifier's trial boots).
// Install maps every region eagerly, so a region larger than this could
// never be installed; ParseScript rejects one.
const PlatformMemBytes = 64 << 20

// Region is one data area of a victim.
type Region struct {
	Name  string
	VA    mem.Addr
	Size  uint64
	Flags uint64
	Init  []byte
}

// Layout bundles a victim program with its memory image and symbols.
type Layout struct {
	Name    string
	Prog    *isa.Program
	Entry   int
	Regions []Region
	// Symbols names data addresses (replay handle, pivot, tables, ...).
	Symbols map[string]mem.Addr
	// Marks names instruction indices (transmit instruction, ...).
	Marks map[string]int
	// SecretRegions names the Regions that hold enclave secrets, and
	// SecretRegs the registers that hold secrets at entry (e.g. an
	// exponent materialized as an immediate). Together they are the
	// taint-source declaration the static scanner (analysis/static,
	// cmd/mscan) consumes.
	SecretRegions []string
	SecretRegs    []isa.Reg
}

// SecretMems returns the [lo, hi) virtual address ranges of the regions
// named in SecretRegions, panicking on names that match no region (like
// Sym, a miss is a programming error in the victim definition).
func (l *Layout) SecretMems() [][2]uint64 {
	var out [][2]uint64
	for _, name := range l.SecretRegions {
		found := false
		for _, r := range l.Regions {
			if r.Name == name {
				out = append(out, [2]uint64{uint64(r.VA), uint64(r.VA) + r.Size})
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("victim %s: secret region %q not in layout", l.Name, name))
		}
	}
	return out
}

// Sym returns a named data address, panicking on unknown names (symbols
// are fixed at victim-construction time; a miss is a programming error).
func (l *Layout) Sym(name string) mem.Addr {
	a, ok := l.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("victim %s: unknown symbol %q", l.Name, name))
	}
	return a
}

// Mark returns a named instruction index.
func (l *Layout) Mark(name string) int {
	i, ok := l.Marks[name]
	if !ok {
		panic(fmt.Sprintf("victim %s: unknown mark %q", l.Name, name))
	}
	return i
}

// Install registers the layout's regions as VMAs of proc, maps them
// eagerly, and writes the initial data.
func (l *Layout) Install(k *kernel.Kernel, proc *kernel.Process) error {
	for _, r := range l.Regions {
		v := k.AddVMA(proc, r.VA, r.VA+r.Size, r.Flags, l.Name+"/"+r.Name)
		if err := k.MapEager(proc, v); err != nil {
			return err
		}
		if len(r.Init) > 0 {
			if err := proc.AddressSpace().WriteVirt(r.VA, r.Init); err != nil {
				return err
			}
		}
	}
	return nil
}

// Start loads the program into context ctxID of the kernel's core. The
// process must already be scheduled there.
func (l *Layout) Start(k *kernel.Kernel, ctxID int) {
	k.Core().Context(ctxID).SetProgram(l.Prog, l.Entry)
}

// u32Bytes renders words as little-endian bytes for region initialization.
func u32Bytes(words []uint32) []byte {
	out := make([]byte, 4*len(words))
	for i, w := range words {
		out[4*i] = byte(w)
		out[4*i+1] = byte(w >> 8)
		out[4*i+2] = byte(w >> 16)
		out[4*i+3] = byte(w >> 24)
	}
	return out
}

// u64Bytes renders words as little-endian bytes.
func u64Bytes(words []uint64) []byte {
	out := make([]byte, 8*len(words))
	for i, w := range words {
		for b := 0; b < 8; b++ {
			out[8*i+b] = byte(w >> (8 * b))
		}
	}
	return out
}
