package mem

import (
	"errors"
	"fmt"
)

// Page-table entry flag bits (subset of the x86-64 layout the paper
// manipulates).
const (
	FlagPresent  uint64 = 1 << 0 // P: translation valid — *the* MicroScope bit
	FlagWritable uint64 = 1 << 1 // R/W
	FlagUser     uint64 = 1 << 2 // U/S
	FlagAccessed uint64 = 1 << 5 // A: set by the walker
	FlagDirty    uint64 = 1 << 6 // D: set on write
	// FlagEnclave marks a frame as enclave-private (EPC). Not an x86 bit;
	// stands in for SGX's EPCM ownership tracking.
	FlagEnclave uint64 = 1 << 9

	ppnShift = PageShift
	ppnMask  = (uint64(1)<<40 - 1) << ppnShift
)

// Entry is a decoded page-table entry.
type Entry uint64

// Present reports the present bit.
func (e Entry) Present() bool { return uint64(e)&FlagPresent != 0 }

// Writable reports the writable bit.
func (e Entry) Writable() bool { return uint64(e)&FlagWritable != 0 }

// User reports the user-accessible bit.
func (e Entry) User() bool { return uint64(e)&FlagUser != 0 }

// Accessed reports the accessed bit.
func (e Entry) Accessed() bool { return uint64(e)&FlagAccessed != 0 }

// Dirty reports the dirty bit.
func (e Entry) Dirty() bool { return uint64(e)&FlagDirty != 0 }

// Enclave reports the enclave-ownership bit.
func (e Entry) Enclave() bool { return uint64(e)&FlagEnclave != 0 }

// PPN returns the physical page number the entry points at.
func (e Entry) PPN() uint64 { return (uint64(e) & ppnMask) >> ppnShift }

// WithPPN returns the entry with its PPN replaced.
func (e Entry) WithPPN(ppn uint64) Entry {
	return Entry(uint64(e)&^ppnMask | ppn<<ppnShift&ppnMask)
}

// WithFlags returns the entry with the given flag bits set.
func (e Entry) WithFlags(flags uint64) Entry { return e | Entry(flags) }

// ClearFlags returns the entry with the given flag bits cleared.
func (e Entry) ClearFlags(flags uint64) Entry { return e &^ Entry(flags) }

// String renders the entry for diagnostics.
func (e Entry) String() string {
	return fmt.Sprintf("Entry{ppn=%#x p=%t w=%t u=%t a=%t d=%t encl=%t}",
		e.PPN(), e.Present(), e.Writable(), e.User(), e.Accessed(), e.Dirty(), e.Enclave())
}

// Level identifies a page-table level, outermost first, matching the
// paper's Figure 2 terminology.
type Level int

// Page-table levels.
const (
	PGD Level = iota // Page Global Directory (root, CR3 target)
	PUD              // Page Upper Directory
	PMD              // Page Middle Directory
	PTE              // leaf Page Table Entry
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case PGD:
		return "PGD"
	case PUD:
		return "PUD"
	case PMD:
		return "PMD"
	case PTE:
		return "PTE"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// IndexFor returns the table index used at the given level for virtual
// address va: bits 47-39 (PGD), 38-30 (PUD), 29-21 (PMD), 20-12 (PTE).
func IndexFor(l Level, va Addr) uint64 {
	shift := PageShift + 9*(Levels-1-int(l))
	return (va >> shift) & (EntriesPerTable - 1)
}

// WalkStep describes one level of a completed or attempted page walk:
// which entry was consulted, where it lives in physical memory, and its
// value. The Replayer uses EntryAddr to flush exactly the four cache lines
// holding the translation (paper §4.1.1 step list).
type WalkStep struct {
	Level     Level
	EntryAddr Addr  // physical address of the entry consulted
	Entry     Entry // value read
}

// Fault describes a failed translation.
type Fault struct {
	VA    Addr
	Level Level // level at which the walk failed
	Write bool
}

func (f *Fault) Error() string {
	return fmt.Sprintf("page fault at va=%#x (level %s, write=%t)", f.VA, f.Level, f.Write)
}

// ErrNoTranslation is returned by Translate when the mapping is absent.
var ErrNoTranslation = errors.New("mem: no translation")

// AddressSpace is a process (or enclave host) address space rooted at a
// PGD frame, analogous to a CR3 value.
type AddressSpace struct {
	phys *PhysMem
	root uint64 // PPN of the PGD
	pcid uint16
}

// NewAddressSpace allocates a fresh PGD in phys and returns the space.
func NewAddressSpace(phys *PhysMem, pcid uint16) (*AddressSpace, error) {
	root, err := phys.AllocFrame()
	if err != nil {
		return nil, err
	}
	return &AddressSpace{phys: phys, root: root, pcid: pcid}, nil
}

// Root returns the PPN of the PGD (the CR3 value >> PageShift).
func (as *AddressSpace) Root() uint64 { return as.root }

// PCID returns the process-context identifier used to tag TLB entries.
func (as *AddressSpace) PCID() uint16 { return as.pcid }

// Phys returns the underlying physical memory.
func (as *AddressSpace) Phys() *PhysMem { return as.phys }

// entryAddr returns the physical address of the entry for va at level l,
// given the PPN of the table at that level.
func entryAddr(tablePPN uint64, l Level, va Addr) Addr {
	return tablePPN<<PageShift + IndexFor(l, va)*EntrySize
}

// tableEntry returns the physical address of the level-l entry for va
// in the table held by frame tablePPN. A table frame beyond physical
// memory faults, as hardware faults on an entry whose frame number sets
// reserved physical-address bits; only a corrupted or forged page table
// (a damaged snapshot image, say) points there.
func (as *AddressSpace) tableEntry(tablePPN uint64, l Level, va Addr) (Addr, *Fault) {
	if tablePPN >= as.phys.Frames() {
		return 0, &Fault{VA: va, Level: l}
	}
	return entryAddr(tablePPN, l, va), nil
}

// Map installs a translation va -> ppn with the given flag bits
// (FlagPresent is implied). Intermediate tables are allocated on demand
// with Present|Writable|User so that leaf permissions govern access.
func (as *AddressSpace) Map(va Addr, ppn uint64, flags uint64) error {
	tablePPN := as.root
	for l := PGD; l < PTE; l++ {
		ea, f := as.tableEntry(tablePPN, l, va)
		if f != nil {
			return fmt.Errorf("mem: mapping %#x: %w", va, f)
		}
		e := Entry(as.phys.Read64(ea))
		if !e.Present() {
			newPPN, err := as.phys.AllocFrame()
			if err != nil {
				return fmt.Errorf("mem: mapping %#x: %w", va, err)
			}
			e = Entry(FlagPresent | FlagWritable | FlagUser).WithPPN(newPPN)
			as.phys.Write64(ea, uint64(e))
		}
		tablePPN = e.PPN()
	}
	leaf, f := as.tableEntry(tablePPN, PTE, va)
	if f != nil {
		return fmt.Errorf("mem: mapping %#x: %w", va, f)
	}
	as.phys.Write64(leaf, uint64(Entry(flags|FlagPresent).WithPPN(ppn)))
	return nil
}

// MapNew allocates a fresh frame and maps va to it, returning the PPN.
func (as *AddressSpace) MapNew(va Addr, flags uint64) (uint64, error) {
	ppn, err := as.phys.AllocFrame()
	if err != nil {
		return 0, err
	}
	if err := as.Map(va, ppn, flags); err != nil {
		return 0, err
	}
	return ppn, nil
}

// Unmap clears the leaf entry for va. Intermediate tables are retained.
func (as *AddressSpace) Unmap(va Addr) error {
	steps, err := as.Walk(va)
	if err != nil {
		return err
	}
	as.phys.Write64(steps[PTE].EntryAddr, 0)
	return nil
}

// Walk performs a software page walk (the same steps the hardware walker
// takes, without cache modelling) and returns the entry consulted at each
// level. If the walk fails at some level, the returned error is a *Fault
// and steps contains the levels traversed so far, including the failing
// one. This is the primitive the MicroScope module uses to locate the
// pgd_t/pud_t/pmd_t/pte_t of a replay handle (paper §5.2.2, operation 1).
func (as *AddressSpace) Walk(va Addr) (steps []WalkStep, err error) {
	steps = make([]WalkStep, 0, int(PTE)+1)
	tablePPN := as.root
	for l := PGD; l <= PTE; l++ {
		ea, f := as.tableEntry(tablePPN, l, va)
		if f != nil {
			return steps, f
		}
		e := Entry(as.phys.Read64(ea))
		steps = append(steps, WalkStep{Level: l, EntryAddr: ea, Entry: e})
		if !e.Present() {
			return steps, &Fault{VA: va, Level: l}
		}
		tablePPN = e.PPN()
	}
	return steps, nil
}

// Translate returns the physical address for va, or a *Fault error. It
// repeats Walk's traversal inline rather than collecting steps: both it
// and LeafEntry sit on the simulator's per-access path, where the steps
// slice was a measurable per-walk heap allocation.
func (as *AddressSpace) Translate(va Addr) (Addr, error) {
	tablePPN := as.root
	for l := PGD; l <= PTE; l++ {
		ea, f := as.tableEntry(tablePPN, l, va)
		if f != nil {
			return 0, f
		}
		e := Entry(as.phys.Read64(ea))
		if !e.Present() {
			return 0, &Fault{VA: va, Level: l}
		}
		tablePPN = e.PPN()
	}
	if tablePPN >= as.phys.Frames() {
		return 0, &Fault{VA: va, Level: PTE}
	}
	return tablePPN<<PageShift | PageOffset(va), nil
}

// LeafEntry returns the leaf PTE for va along with its physical address.
// Unlike Walk it requires all intermediate levels to be present but
// tolerates a non-present leaf, which is exactly the state a MicroScope'd
// page is in mid-attack.
func (as *AddressSpace) LeafEntry(va Addr) (Entry, Addr, error) {
	tablePPN := as.root
	for l := PGD; l < PTE; l++ {
		ea, f := as.tableEntry(tablePPN, l, va)
		if f != nil {
			return 0, 0, f
		}
		e := Entry(as.phys.Read64(ea))
		if !e.Present() {
			return 0, 0, &Fault{VA: va, Level: l}
		}
		tablePPN = e.PPN()
	}
	ea, f := as.tableEntry(tablePPN, PTE, va)
	if f != nil {
		return 0, 0, f
	}
	return Entry(as.phys.Read64(ea)), ea, nil
}

// SetPresent sets or clears the present bit of the leaf PTE for va. It
// returns the physical address of the modified entry so the caller can
// flush it from the cache hierarchy. This is MicroScope's core mutation
// (paper §4.1.1 step 2 and §4.1.4 step 5).
func (as *AddressSpace) SetPresent(va Addr, present bool) (Addr, error) {
	e, ea, err := as.LeafEntry(va)
	if err != nil {
		return 0, err
	}
	if e == 0 {
		return 0, fmt.Errorf("mem: SetPresent(%#x): no mapping installed", va)
	}
	if present {
		e = e.WithFlags(FlagPresent)
	} else {
		e = e.ClearFlags(FlagPresent)
	}
	as.phys.Write64(ea, uint64(e))
	return ea, nil
}

// ClearAccessedDirty clears the A/D bits of the leaf PTE for va (used by
// the Sneaky-Page-Monitoring style observations in tests).
func (as *AddressSpace) ClearAccessedDirty(va Addr) error {
	e, ea, err := as.LeafEntry(va)
	if err != nil {
		return err
	}
	as.phys.Write64(ea, uint64(e.ClearFlags(FlagAccessed|FlagDirty)))
	return nil
}

// WriteVirt writes b at virtual address va, which must be mapped.
func (as *AddressSpace) WriteVirt(va Addr, b []byte) error {
	for len(b) > 0 {
		pa, err := as.Translate(va)
		if err != nil {
			return err
		}
		n := PageSize - PageOffset(va)
		if uint64(len(b)) < n {
			n = uint64(len(b))
		}
		as.phys.WriteBytes(pa, b[:n])
		b = b[n:]
		va += n
	}
	return nil
}

// ReadVirt reads n bytes at virtual address va, which must be mapped.
func (as *AddressSpace) ReadVirt(va Addr, n uint64) ([]byte, error) {
	out := make([]byte, 0, n)
	for n > 0 {
		pa, err := as.Translate(va)
		if err != nil {
			return nil, err
		}
		chunk := PageSize - PageOffset(va)
		if n < chunk {
			chunk = n
		}
		out = append(out, as.phys.ReadBytes(pa, chunk)...)
		n -= chunk
		va += chunk
	}
	return out, nil
}

// Write64Virt writes a 64-bit value at virtual address va.
func (as *AddressSpace) Write64Virt(va Addr, v uint64) error {
	pa, err := as.Translate(va)
	if err != nil {
		return err
	}
	as.phys.Write64(pa, v)
	return nil
}

// Read64Virt reads a 64-bit value at virtual address va.
func (as *AddressSpace) Read64Virt(va Addr) (uint64, error) {
	pa, err := as.Translate(va)
	if err != nil {
		return 0, err
	}
	return as.phys.Read64(pa), nil
}
