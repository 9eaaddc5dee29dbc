// Store: a lazily materialized word store shared by every memory model,
// with a two-layer copy-on-write design for checkpointing. Snapshot
// freezes the current contents into an immutable Image that new stores
// (NewStoreFrom) and rewinds (Restore) share by reference. Pages are
// copied only when a store first writes into a frozen page, so cloning a
// multi-megabyte image costs one map header and warm-starting a sweep
// cell is a pointer swap.
//
// A Store has one owner goroutine: a system's session steps its
// channels serially, sweep workers own private stores, and concurrent
// users (autotune candidates, clones) share only immutable Images. A
// Read is a map lookup per layer; a Write to an already-materialized
// live page is one lookup and one element store.

package memsys

import (
	"fmt"
	"sort"

	"pva/internal/core"
)

// PageWords is the allocation granularity of Store.
const PageWords = 4096

// pageMap is a page table: page number to PageWords words.
type pageMap = map[uint32][]uint32

// Image is an immutable snapshot of a Store's contents. Images share
// pages with the stores they came from and the stores built on them;
// every store copy-on-writes before its first store into a frozen page,
// so an Image's words never change after Snapshot returns.
type Image struct {
	pages pageMap
}

// PageNumbers returns the image's materialized page numbers in ascending
// order. Together with Page it is the enumeration the durable checkpoint
// encoder (internal/ckptio) serializes; sorting makes the encoding
// canonical, so identical images encode to identical bytes.
func (img *Image) PageNumbers() []uint32 {
	pns := make([]uint32, 0, len(img.pages))
	for pn := range img.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

// Page returns the image's page pn, or nil when the page was never
// materialized (its words are the Fill pattern). The returned slice is
// part of the immutable image: callers must not modify it.
func (img *Image) Page(pn uint32) []uint32 { return img.pages[pn] }

// NewImage builds an immutable Image from explicit page contents, the
// inverse of the PageNumbers/Page enumeration. It takes ownership of the
// map and every slice — callers (the checkpoint decoder) must not retain
// or mutate them. Every page must be exactly PageWords long.
func NewImage(pages map[uint32][]uint32) (*Image, error) {
	for pn, p := range pages {
		if len(p) != PageWords {
			return nil, fmt.Errorf("memsys: page %d has %d words, want %d", pn, len(p), PageWords)
		}
	}
	if pages == nil {
		pages = pageMap{}
	}
	return &Image{pages: pages}, nil
}

// Store is a sparse 32-bit word memory. Unwritten words read as
// Fill(addr), so independently constructed stores agree on cold contents.
type Store struct {
	// frozen is the immutable checkpoint layer shared with Images (and
	// through them, with sibling stores). nil when no snapshot backs
	// this store. Read-only by contract.
	frozen pageMap
	// live holds the pages written since the last Snapshot/Restore.
	// They are exclusively this store's.
	live pageMap
	// free recycles pages discarded by Restore so a warm-started sweep
	// stops allocating once its first run has sized the pool. Pages here
	// are unreachable from either layer.
	free [][]uint32
}

// NewStore returns an empty (all-Fill) store.
func NewStore() *Store {
	return &Store{live: pageMap{}}
}

// NewStoreFrom returns a store whose initial contents are the image
// (nil: cold). The image's pages are shared, never copied, until the
// new store writes into them.
func NewStoreFrom(img *Image) *Store {
	s := NewStore()
	if img != nil {
		s.frozen = img.pages
	}
	return s
}

// Read returns the word at address a.
func (s *Store) Read(a uint32) uint32 {
	pn := a / PageWords
	if p, ok := s.live[pn]; ok {
		return p[a%PageWords]
	}
	if p, ok := s.frozen[pn]; ok {
		return p[a%PageWords]
	}
	return Fill(a)
}

// Write stores v at address a.
func (s *Store) Write(a, v uint32) {
	pn := a / PageWords
	if p, ok := s.live[pn]; ok {
		p[a%PageWords] = v
		return
	}
	s.materialize(pn)[a%PageWords] = v
}

// materialize inserts page pn into the live layer, copying the frozen
// page when the checkpoint holds one, else the Fill pattern.
func (s *Store) materialize(pn uint32) []uint32 {
	var p []uint32
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		p = make([]uint32, PageWords)
	}
	if fz, ok := s.frozen[pn]; ok {
		copy(p, fz)
	} else {
		base := pn * PageWords
		for i := range p {
			p[i] = Fill(base + uint32(i))
		}
	}
	s.live[pn] = p
	return p
}

// Snapshot freezes the store's current contents into an immutable Image.
// The store keeps running — its next write into any frozen page copies
// the page first — so the image is a true point-in-time checkpoint at
// copy-on-write cost. Take snapshots between runs, not mid-cycle.
func (s *Store) Snapshot() *Image {
	if len(s.live) == 0 && s.frozen != nil {
		return &Image{pages: s.frozen} // unchanged since the last freeze
	}
	merged := make(pageMap, len(s.frozen)+len(s.live))
	for k, v := range s.frozen {
		merged[k] = v
	}
	for k, v := range s.live {
		merged[k] = v
	}
	s.frozen = merged
	s.live = pageMap{}
	return &Image{pages: merged}
}

// Restore rewinds the store to an image's contents (nil: cold) in O(1),
// discarding everything written since. The image stays immutable: the
// store copy-on-writes before dirtying any of its pages.
func (s *Store) Restore(img *Image) {
	if img != nil {
		s.frozen = img.pages
	} else {
		s.frozen = nil
	}
	// Live pages are exclusively ours (Snapshot moves shared pages into
	// the frozen layer), so recycle them instead of feeding the GC.
	for _, p := range s.live {
		s.free = append(s.free, p)
	}
	s.live = pageMap{}
}

// Gather reads the dense line of a vector: element i of the result is the
// word at v.Addr(i).
func (s *Store) Gather(v core.Vector) []uint32 {
	out := make([]uint32, v.Length)
	for i := uint32(0); i < v.Length; i++ {
		out[i] = s.Read(v.Addr(i))
	}
	return out
}

// Scatter writes the dense line data to the vector's strided addresses.
// When the vector self-overlaps (stride 0, or wrap collisions), later
// elements win, matching issue order in the hardware.
func (s *Store) Scatter(v core.Vector, data []uint32) {
	for i := uint32(0); i < v.Length && i < uint32(len(data)); i++ {
		s.Write(v.Addr(i), data[i])
	}
}

// GatherAt reads the dense line of an indexed gather: element i of the
// result is the word at base + idx[i] (wrapping modulo 2^32).
func (s *Store) GatherAt(base uint32, idx []uint32) []uint32 {
	out := make([]uint32, len(idx))
	for i, off := range idx {
		out[i] = s.Read(base + off)
	}
	return out
}

// ScatterAt writes the dense line data to the indexed addresses
// base + idx[i]. When indices collide, later elements win — the same
// issue-order rule Scatter applies to self-overlapping vectors.
func (s *Store) ScatterAt(base uint32, idx []uint32, data []uint32) {
	for i := 0; i < len(idx) && i < len(data); i++ {
		s.Write(base+idx[i], data[i])
	}
}
