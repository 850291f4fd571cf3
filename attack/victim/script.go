package victim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"microscope/analysis/static"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// Victim scripts: the textual format for user-defined victims, read by
// `microscope lab` for attack exploration and by cmd/mscan's scan,
// verifier and sanitizer. A script is ISA assembly (see
// sim/isa.Assemble) plus `;;` directives that declare the memory image
// and the secrets:
//
//	;; region <name> <addr> <ro|rw> [pages]   data region (default 1 page)
//	;; init <name>+<off> <value>              64-bit word initializer
//	;; symbol <name> <region>[+<off>]         named address for recipes
//	;; entry <label>                          start label (default: first instr)
//	;; secret <region>                        the region holds secrets
//	;; secret-reg <reg>                       the register holds a secret at entry
//
// A secret is a whole region, declared by an earlier region directive.
// Directive lines are comments to the assembler, so the same text
// assembles cleanly.

// ParseScript builds a Layout from a victim script.
func ParseScript(name, src string) (*Layout, error) {
	l := &Layout{
		Name:    name,
		Symbols: map[string]mem.Addr{},
		Marks:   map[string]int{},
	}
	regions := map[string]*Region{}
	entryLabel := ""

	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if !strings.HasPrefix(line, ";;") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, ";;"))
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("victim: script line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "region":
			if len(fields) < 4 || len(fields) > 5 {
				return nil, fail("region wants <name> <addr> <ro|rw> [pages]")
			}
			addr, err := parseAddr(fields[2])
			if err != nil {
				return nil, fail("bad address %q", fields[2])
			}
			if addr%mem.PageSize != 0 {
				return nil, fail("region %s not page aligned", fields[1])
			}
			flags := uint64(mem.FlagUser)
			switch fields[3] {
			case "ro":
			case "rw":
				flags |= mem.FlagWritable
			default:
				return nil, fail("bad permissions %q", fields[3])
			}
			pages := uint64(1)
			if len(fields) == 5 {
				n, err := strconv.ParseUint(fields[4], 0, 32)
				if err != nil || n == 0 {
					return nil, fail("bad page count %q", fields[4])
				}
				pages = n
			}
			if pages > PlatformMemBytes/mem.PageSize {
				return nil, fail("region %s: %d pages exceed the %d MB of physical memory", fields[1], pages, PlatformMemBytes>>20)
			}
			if addr+pages*mem.PageSize <= addr { // the end wraps to, or past, 2^64
				return nil, fail("region %s: %d pages at %#x end past the top of the address space", fields[1], pages, addr)
			}
			if _, dup := regions[fields[1]]; dup {
				return nil, fail("duplicate region %q", fields[1])
			}
			r := &Region{
				Name:  fields[1],
				VA:    addr,
				Size:  pages * mem.PageSize,
				Flags: flags,
			}
			regions[fields[1]] = r
			l.Symbols[fields[1]] = addr
		case "init":
			if len(fields) != 3 {
				return nil, fail("init wants <name>+<off> <value>")
			}
			regName, off, err := splitRef(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			r, ok := regions[regName]
			if !ok {
				return nil, fail("init before region %q", regName)
			}
			if off > r.Size-8 { // r.Size is at least a page; off+8 could wrap
				return nil, fail("init offset %d outside region %q", off, regName)
			}
			val, err := parseAddr(fields[2])
			if err != nil {
				return nil, fail("bad init value %q", fields[2])
			}
			if uint64(len(r.Init)) < off+8 {
				grown := make([]byte, off+8)
				copy(grown, r.Init)
				r.Init = grown
			}
			for i := 0; i < 8; i++ {
				r.Init[off+uint64(i)] = byte(val >> (8 * i))
			}
		case "symbol":
			if len(fields) != 3 {
				return nil, fail("symbol wants <name> <region>[+<off>]")
			}
			regName, off, err := splitRef(fields[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			r, ok := regions[regName]
			if !ok {
				return nil, fail("symbol before region %q", regName)
			}
			l.Symbols[fields[1]] = r.VA + off
		case "entry":
			if len(fields) != 2 {
				return nil, fail("entry wants <label>")
			}
			entryLabel = fields[1]
		case "secret":
			if len(fields) != 2 {
				return nil, fail("secret wants <region>")
			}
			if _, ok := regions[fields[1]]; !ok {
				return nil, fail("secret before region %q", fields[1])
			}
			l.SecretRegions = append(l.SecretRegions, fields[1])
		case "secret-reg":
			if len(fields) != 2 {
				return nil, fail("secret-reg wants <reg>")
			}
			r, err := isa.ParseReg(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			l.SecretRegs = append(l.SecretRegs, r)
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}

	for _, r := range regions {
		l.Regions = append(l.Regions, *r)
	}
	// Deterministic region order (map iteration is random).
	sort.Slice(l.Regions, func(i, j int) bool { return l.Regions[i].VA < l.Regions[j].VA })
	if need, have := installFrames(l.Regions), uint64(PlatformMemBytes/mem.PageSize); need > have {
		return nil, fmt.Errorf("victim: script %s: its regions and their page tables need %d physical frames, the platform has %d",
			name, need, have)
	}

	prog, err := isa.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("victim: script %s: %w", name, err)
	}
	if prog.Len() == 0 {
		return nil, fmt.Errorf("victim: script %s has no instructions", name)
	}
	// The check the core runs when the program loads, so a script that
	// cannot run (control that falls off its end, say) fails here.
	if err := static.Validate(prog); err != nil {
		return nil, fmt.Errorf("victim: script %s: %w", name, err)
	}
	l.Prog = prog
	if entryLabel != "" {
		idx, ok := prog.LabelOf(entryLabel)
		if !ok {
			return nil, fmt.Errorf("victim: script %s: entry label %q undefined", name, entryLabel)
		}
		if idx >= prog.Len() {
			return nil, fmt.Errorf("victim: script %s: entry label %q follows the last instruction", name, entryLabel)
		}
		l.Entry = idx
	}
	return l, nil
}

// installFrames returns the physical frames Install takes to map
// regions into a fresh address space: one per distinct page, one PUD,
// PMD and PTE table per distinct 512 GB, 1 GB and 2 MB span of those
// pages, and the PGD. The page tables index only the low 48 bits of an
// address, so addresses that differ above them share a page.
func installFrames(regions []Region) uint64 {
	const space = 1 << 48
	type span struct{ lo, hi uint64 } // [lo, hi) in the 48-bit space
	var spans []span
	for _, r := range regions {
		lo := r.VA & (space - 1)
		hi := lo + r.Size
		if hi > space { // wraps to the bottom of the space
			spans = append(spans, span{0, hi - space})
			hi = space
		}
		spans = append(spans, span{lo, hi})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	var merged []span
	for _, s := range spans {
		if n := len(merged); n > 0 && s.lo <= merged[n-1].hi {
			merged[n-1].hi = max(merged[n-1].hi, s.hi)
			continue
		}
		merged = append(merged, s)
	}
	frames := uint64(1) // the PGD
	for _, s := range merged {
		frames += (s.hi - s.lo) / mem.PageSize
	}
	// One table per span its entries map: 2 MB for a PTE table, 1 GB
	// for a PMD, 512 GB for a PUD. The merged spans are sorted and
	// disjoint, so next skips a table an earlier span already counted.
	for _, shift := range []uint{mem.PageShift + 9, mem.PageShift + 18, mem.PageShift + 27} {
		next := uint64(0)
		for _, s := range merged {
			first, last := max(s.lo>>shift, next), (s.hi-1)>>shift
			if last >= first {
				frames += last - first + 1
				next = last + 1
			}
		}
	}
	return frames
}

func parseAddr(s string) (uint64, error) {
	return strconv.ParseUint(s, 0, 64)
}

// splitRef parses "name" or "name+off".
func splitRef(s string) (string, uint64, error) {
	name, offStr, found := strings.Cut(s, "+")
	if !found {
		return name, 0, nil
	}
	off, err := strconv.ParseUint(offStr, 0, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad offset in %q", s)
	}
	return name, off, nil
}
