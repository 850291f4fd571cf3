package cpu

import (
	"microscope/sim/mem"
	"microscope/sim/tlb"
)

// accessResult describes the outcome of a load/store address generation
// and (for loads) data access.
type accessResult struct {
	pa         mem.Addr
	latency    int
	walkCycles int       // 0 on a TLB hit
	faulted    bool      // translation failed with fault
	fault      mem.Fault // valid when faulted
}

// translate resolves va through the TLB complex, falling back to the
// hardware page walker. The returned latency includes TLB lookup and any
// walk cycles.
func (c *Core) translate(ctx *Context, va mem.Addr, write bool) accessResult {
	if ctx.as == nil {
		// No address space bound (a restored image whose schedule left a
		// loaded context unbound): nothing translates.
		return accessResult{latency: c.cfg.TLBL1Lat, faulted: true, fault: mem.Fault{VA: va, Level: mem.PGD, Write: write}}
	}
	vpn := mem.PageNum(va)
	pcid := ctx.as.PCID()
	lat := c.cfg.TLBL1Lat
	tr, level := c.tlbs.LookupData(vpn, pcid)
	if level == 2 {
		lat += c.cfg.TLBL2Lat
	}
	walkLat := 0
	if level == 0 {
		lat += c.cfg.TLBL2Lat
		var failed mem.Level
		var ok bool
		walkLat, tr, failed, ok = c.pageWalk(ctx, va)
		lat += walkLat
		if !ok {
			return accessResult{latency: lat, walkCycles: walkLat, faulted: true, fault: mem.Fault{VA: va, Level: failed, Write: write}}
		}
		c.tlbs.InsertData(tr)
	}
	if write && !tr.Flags.Writable {
		return accessResult{latency: lat, walkCycles: walkLat, faulted: true, fault: mem.Fault{VA: va, Level: mem.PTE, Write: true}}
	}
	return accessResult{pa: tr.PPN<<mem.PageShift | mem.PageOffset(va), latency: lat, walkCycles: walkLat}
}

// pageWalk performs the hardware page walk of the paper's Figure 2: it
// fetches PGD, PUD, PMD and PTE entries sequentially, each through the
// page-walk cache (upper levels) or the data cache hierarchy. The walk
// latency is therefore directly controlled by which cache level holds
// each entry — the Replayer's §4.1.2 tuning knob. A walk that meets a
// non-present entry returns ok false and the level it failed at.
func (c *Core) pageWalk(ctx *Context, va mem.Addr) (lat int, tr tlb.Translation, failed mem.Level, ok bool) {
	tablePPN := ctx.as.Root()
	for l := mem.PGD; l <= mem.PTE; l++ {
		if tablePPN >= c.phys.Frames() {
			// A table frame beyond physical memory sets reserved address
			// bits; the walk faults, as mem.AddressSpace's walks do.
			return lat, tr, l, false
		}
		ea := tablePPN<<mem.PageShift + mem.IndexFor(l, va)*mem.EntrySize
		if l < mem.PTE && c.pwc.Lookup(ea) {
			lat += c.cfg.PWCLat
		} else {
			clat, _ := c.hier.Access(ea)
			lat += clat
			if l < mem.PTE {
				c.pwc.Insert(ea, l)
			}
		}
		e := mem.Entry(c.phys.Read64(ea))
		if !e.Present() {
			return lat, tr, l, false
		}
		if l == mem.PTE {
			// Set the accessed bit, as the hardware walker does.
			c.phys.Write64(ea, uint64(e.WithFlags(mem.FlagAccessed)))
			return lat, tlb.Translation{
				VPN:   mem.PageNum(va),
				PPN:   e.PPN(),
				PCID:  ctx.as.PCID(),
				Flags: tlb.FlagsFromEntry(e),
			}, 0, true
		}
		tablePPN = e.PPN()
	}
	panic("unreachable")
}

// dataAccess performs the cache access for a load at physical address pa.
func (c *Core) dataAccess(pa mem.Addr) int {
	lat, _ := c.hier.Access(pa)
	return lat
}

// jitter returns the deterministic noise term applied to each executed
// instruction: every JitterPeriod-th instruction takes JitterExtra extra
// cycles, modelling ambient platform noise (DRAM refresh, SMIs, ...).
func (c *Core) jitter() int {
	if c.cfg.JitterPeriod <= 0 {
		return 0
	}
	c.jitterCount++
	if c.jitterCount%uint64(c.cfg.JitterPeriod) == 0 {
		return c.cfg.JitterExtra
	}
	return 0
}
