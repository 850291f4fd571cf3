// Package mem implements the simulated physical memory and the x86-64
// style 4-level page tables the MicroScope attack manipulates.
//
// Page tables live inside the simulated physical memory, so the hardware
// page walker (sim/cpu) performs real memory reads for each level — reads
// that hit or miss in the simulated cache hierarchy. That property is what
// lets the Replayer tune page-walk duration by flushing or pre-warming
// individual page-table entries (paper §4.1.2).
package mem

import (
	"encoding/binary"
	"fmt"
)

// Architectural constants (matching x86-64 4K paging).
const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the size of a page/frame in bytes.
	PageSize = 1 << PageShift
	// PageMask extracts the page offset of an address.
	PageMask = PageSize - 1
	// EntrySize is the size of one page-table entry in bytes.
	EntrySize = 8
	// EntriesPerTable is the number of entries per page-table page.
	EntriesPerTable = PageSize / EntrySize
	// Levels is the number of page-table levels (PGD, PUD, PMD, PTE).
	Levels = 4
)

// Chunked backing-store geometry. A rig boots a 64 MB physical memory but
// touches only a few hundred KB of it; allocating (and zeroing) the full
// array up front was ~30% of benchmark wall time. Chunks are allocated on
// first write; a nil chunk reads as zeros.
const (
	chunkShift = 16 // 64 KB chunks
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// Addr is a virtual or physical byte address.
type Addr = uint64

// PageNum returns the page/frame number containing addr.
func PageNum(a Addr) uint64 { return a >> PageShift }

// PageBase returns the base address of the page containing addr.
func PageBase(a Addr) Addr { return a &^ uint64(PageMask) }

// PageOffset returns the offset of addr within its page.
func PageOffset(a Addr) uint64 { return a & PageMask }

// PhysMem is a flat, byte-addressable physical memory with a frame
// allocator. The byte array is stored as lazily-allocated fixed-size
// chunks so that booting a large machine costs only the bytes actually
// touched; semantically it is indistinguishable from one contiguous
// zero-initialized array of Size() bytes (bounds checks, wild transient
// accesses and snapshots all see the full size). The zero value is
// unusable; use NewPhysMem.
type PhysMem struct {
	chunks    [][]byte // len(chunks) == size/chunkSize; nil chunk == all zero
	size      uint64
	nextFrame uint64
	freeList  []uint64
}

// NewPhysMem returns a physical memory of the given size, which must be a
// positive multiple of PageSize.
func NewPhysMem(size uint64) *PhysMem {
	if size == 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("mem: size %d is not a positive multiple of %d", size, PageSize))
	}
	nChunks := (size + chunkSize - 1) / chunkSize
	return &PhysMem{chunks: make([][]byte, nChunks), size: size}
}

// Size returns the memory size in bytes.
func (m *PhysMem) Size() uint64 { return m.size }

// Frames returns the total number of frames.
func (m *PhysMem) Frames() uint64 { return m.Size() / PageSize }

// AllocFrame allocates a zeroed physical frame and returns its frame
// number (PPN).
func (m *PhysMem) AllocFrame() (uint64, error) {
	if n := len(m.freeList); n > 0 {
		ppn := m.freeList[n-1]
		m.freeList = m.freeList[:n-1]
		m.zeroFrame(ppn)
		return ppn, nil
	}
	if m.nextFrame >= m.Frames() {
		return 0, fmt.Errorf("mem: out of physical frames (%d allocated)", m.nextFrame)
	}
	ppn := m.nextFrame
	m.nextFrame++
	return ppn, nil
}

// FreeFrame returns a frame to the allocator.
func (m *PhysMem) FreeFrame(ppn uint64) {
	m.freeList = append(m.freeList, ppn)
}

// AllocatedFrames returns the number of frames currently handed out.
func (m *PhysMem) AllocatedFrames() uint64 {
	return m.nextFrame - uint64(len(m.freeList))
}

func (m *PhysMem) zeroFrame(ppn uint64) {
	base := ppn << PageShift
	// A page never straddles chunks (chunkSize is a multiple of PageSize).
	if c := m.chunks[base>>chunkShift]; c != nil {
		off := base & chunkMask
		clear(c[off : off+PageSize])
	}
}

// chunkFor returns the chunk holding pa, allocating it if needed (write
// paths).
func (m *PhysMem) chunkFor(pa Addr) []byte {
	i := pa >> chunkShift
	c := m.chunks[i]
	if c == nil {
		c = make([]byte, chunkSize)
		m.chunks[i] = c
	}
	return c
}

func (m *PhysMem) check(pa Addr, n uint64) {
	if pa+n > m.Size() || pa+n < pa {
		panic(fmt.Sprintf("mem: physical access [%#x,%#x) outside memory of size %#x", pa, pa+n, m.Size()))
	}
}

// Read64 reads a 64-bit little-endian value at physical address pa.
func (m *PhysMem) Read64(pa Addr) uint64 {
	m.check(pa, 8)
	if off := pa & chunkMask; off <= chunkSize-8 {
		c := m.chunks[pa>>chunkShift]
		if c == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(c[off:])
	}
	var b [8]byte
	m.readSlow(pa, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Write64 writes a 64-bit little-endian value at physical address pa.
func (m *PhysMem) Write64(pa Addr, v uint64) {
	m.check(pa, 8)
	if off := pa & chunkMask; off <= chunkSize-8 {
		binary.LittleEndian.PutUint64(m.chunkFor(pa)[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.writeSlow(pa, b[:])
}

// Read32 reads a 32-bit little-endian value at physical address pa.
func (m *PhysMem) Read32(pa Addr) uint32 {
	m.check(pa, 4)
	if off := pa & chunkMask; off <= chunkSize-4 {
		c := m.chunks[pa>>chunkShift]
		if c == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(c[off:])
	}
	var b [4]byte
	m.readSlow(pa, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 writes a 32-bit little-endian value at physical address pa.
func (m *PhysMem) Write32(pa Addr, v uint32) {
	m.check(pa, 4)
	if off := pa & chunkMask; off <= chunkSize-4 {
		binary.LittleEndian.PutUint32(m.chunkFor(pa)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.writeSlow(pa, b[:])
}

// ByteAt reads the byte at physical address pa.
func (m *PhysMem) ByteAt(pa Addr) byte {
	m.check(pa, 1)
	c := m.chunks[pa>>chunkShift]
	if c == nil {
		return 0
	}
	return c[pa&chunkMask]
}

// SetByte writes the byte at physical address pa.
func (m *PhysMem) SetByte(pa Addr, v byte) {
	m.check(pa, 1)
	m.chunkFor(pa)[pa&chunkMask] = v
}

// readSlow copies len(out) bytes starting at pa, crossing chunk
// boundaries as needed. Bounds must already be checked.
func (m *PhysMem) readSlow(pa Addr, out []byte) {
	for len(out) > 0 {
		off := pa & chunkMask
		n := uint64(len(out))
		if avail := uint64(chunkSize) - off; n > avail {
			n = avail
		}
		if c := m.chunks[pa>>chunkShift]; c != nil {
			copy(out[:n], c[off:off+n])
		} else {
			clear(out[:n])
		}
		out = out[n:]
		pa += n
	}
}

// writeSlow copies b into memory starting at pa, crossing chunk
// boundaries as needed. Bounds must already be checked.
func (m *PhysMem) writeSlow(pa Addr, b []byte) {
	for len(b) > 0 {
		off := pa & chunkMask
		n := uint64(len(b))
		if avail := uint64(chunkSize) - off; n > avail {
			n = avail
		}
		copy(m.chunkFor(pa)[off:off+n], b[:n])
		b = b[n:]
		pa += n
	}
}

// ReadBytes copies n bytes starting at pa.
func (m *PhysMem) ReadBytes(pa Addr, n uint64) []byte {
	m.check(pa, n)
	out := make([]byte, n)
	m.readSlow(pa, out)
	return out
}

// WriteBytes copies b into memory starting at pa.
func (m *PhysMem) WriteBytes(pa Addr, b []byte) {
	m.check(pa, uint64(len(b)))
	m.writeSlow(pa, b)
}
