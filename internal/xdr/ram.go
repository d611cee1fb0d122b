package xdr

import "fmt"

// RAM is sparse byte-addressable storage. Its unit is one block (Memory
// uses LineBytes): a block takes the next free slot of the storage chunks
// on its first write, so a 512 MB address space costs only the lines a run
// writes. Slot tables, one per tableBlocks blocks so that their index stays
// small enough to cache, map each block to its slot. Reset forgets every
// block but keeps up to keepBytes of chunks and of emptied tables, so a
// recycled system reuses the last run's storage without pinning a large
// run's. RAM carries the *contents* of memory; all timing lives in Memory.
type RAM struct {
	total, block int64
	perChunk     int               // slots per chunk
	tables       map[int64][]int32 // slot+1 of each block of a table's span, 0 if unwritten
	spare        [][]int32         // tables emptied by Reset
	chunks       [][]byte          // slot storage
	used         int               // slots handed out since the last Reset
}

const (
	tableBlocks = 512      // blocks per slot table
	chunkBytes  = 64 << 10 // storage chunk size, or one block if larger
	keepBytes   = 4 << 20  // chunks, and slot tables, that Reset keeps
)

// NewRAM returns storage for total bytes, materialized block bytes at a
// time.
func NewRAM(total, block int64) *RAM {
	r := &RAM{block: block, perChunk: max(1, int(chunkBytes/max(block, 1))), tables: make(map[int64][]int32)}
	r.Reset(total)
	return r
}

// Reset forgets every materialized block, so all memory reads as zero
// again, and resizes the address space to total bytes. Up to keepBytes of
// storage chunks and as much of emptied slot tables are kept for reuse;
// the rest is released, so one large run does not pin its storage.
func (r *RAM) Reset(total int64) {
	if total <= 0 || r.block <= 0 || total%r.block != 0 {
		panic(fmt.Sprintf("xdr: bad RAM geometry total=%d block=%d", total, r.block))
	}
	r.total = total
	for _, t := range r.tables {
		clear(t)
		r.spare = append(r.spare, t)
	}
	clear(r.tables)
	keep := min(len(r.spare), keepBytes/(4*tableBlocks))
	clear(r.spare[keep:])
	r.spare = r.spare[:keep]
	keep = min(len(r.chunks), keepBytes/(r.perChunk*int(r.block)))
	clear(r.chunks[keep:])
	r.chunks = r.chunks[:keep]
	r.used = 0
}

// slot returns block idx's storage: nil if it was never written and
// create is false, else its slot (a new slot is zeroed).
func (r *RAM) slot(idx int64, create bool) []byte {
	t := r.tables[idx/tableBlocks]
	if t == nil {
		if !create {
			return nil
		}
		if n := len(r.spare); n > 0 {
			t, r.spare = r.spare[n-1], r.spare[:n-1]
		} else {
			t = make([]int32, tableBlocks)
		}
		r.tables[idx/tableBlocks] = t
	}
	e := &t[idx%tableBlocks]
	fresh := *e == 0
	if fresh {
		if !create {
			return nil
		}
		if r.used == len(r.chunks)*r.perChunk {
			r.chunks = append(r.chunks, make([]byte, r.perChunk*int(r.block)))
		}
		r.used++
		*e = int32(r.used)
	}
	k, b := int(*e)-1, int(r.block)
	s := r.chunks[k/r.perChunk][k%r.perChunk*b:][:b]
	if fresh {
		clear(s) // a kept slot holds an earlier run's bytes
	}
	return s
}

func (r *RAM) check(addr int64, n int) {
	if addr < 0 || addr+int64(n) > r.total {
		panic(fmt.Sprintf("xdr: RAM access %#x+%d out of range", addr, n))
	}
}

// Read copies len(dst) bytes at addr into dst. Untouched memory reads as
// zero.
func (r *RAM) Read(addr int64, dst []byte) {
	r.check(addr, len(dst))
	for len(dst) > 0 {
		idx, off := addr/r.block, addr%r.block
		n := min(int(r.block-off), len(dst))
		if s := r.slot(idx, false); s != nil {
			copy(dst[:n], s[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += int64(n)
	}
}

// Write copies src into memory at addr.
func (r *RAM) Write(addr int64, src []byte) {
	r.check(addr, len(src))
	for len(src) > 0 {
		idx, off := addr/r.block, addr%r.block
		n := min(int(r.block-off), len(src))
		copy(r.slot(idx, true)[off:], src[:n])
		src = src[n:]
		addr += int64(n)
	}
}
