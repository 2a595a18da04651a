package vfs

import (
	"slices"
	"strings"
)

// dirent is one directory entry. A removed entry keeps its name and has
// a nil inode (a tombstone) until the next rebuild squeezes it out.
type dirent struct {
	name string
	n    *node
}

// dir is the table of one directory: the entries in insertion order and,
// above dirScanMax of them, an open-addressed index of their positions.
// Nothing observable depends on the hash. Entries never move within a
// slice — a sort or a compaction makes a new one — because a suspended
// Walk may be holding the old.
type dir struct {
	ents   []dirent
	index  []uint32 // position+1 in ents, 0 = empty; len is a power of two
	live   int      // entries with an inode
	sorted bool     // ents ascend by name
}

const (
	dirScanMax = 8 // up to this many entries are searched linearly, unindexed
	// The index is rebuilt when an insert would fill it past
	// dirMaxLoad/dirLoadDen and is sized to half that, so a directory
	// that churns at one size is not rebuilt on every insert.
	dirMaxLoad, dirLoadDen = 3, 4
)

// hashName is FNV-1a with the high bits folded down for the mask.
func hashName(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h ^ h>>15
}

// find returns the position of name's live entry, or -1.
func (d *dir) find(name string) int {
	if d.index == nil {
		for i := range d.ents {
			if e := &d.ents[i]; e.n != nil && e.name == name {
				return i
			}
		}
		return -1
	}
	mask := uint32(len(d.index) - 1)
	for i, step := hashName(name)&mask, uint32(1); ; i, step = (i+step)&mask, step+1 {
		pos := d.index[i]
		if pos == 0 {
			return -1
		}
		if e := &d.ents[pos-1]; e.n != nil && e.name == name {
			return int(pos - 1)
		}
	}
}

// get returns name's inode, or nil.
func (d *dir) get(name string) *node {
	if i := d.find(name); i >= 0 {
		return d.ents[i].n
	}
	return nil
}

// put appends an entry for a name the directory does not hold.
func (d *dir) put(name string, n *node) {
	if len(d.ents) >= dirScanMax && (len(d.ents)+1)*dirLoadDen > len(d.index)*dirMaxLoad {
		d.rebuild()
	}
	d.sorted = d.sorted && (len(d.ents) == 0 || d.ents[len(d.ents)-1].name < name)
	d.ents = append(d.ents, dirent{name, n})
	d.live++
	if d.index != nil {
		d.link(len(d.ents))
	}
}

// del tombstones name's entry and returns its inode (nil if absent).
func (d *dir) del(name string) *node {
	i := d.find(name)
	if i < 0 {
		return nil
	}
	n := d.ents[i].n
	d.ents[i].n = nil
	d.live--
	return n
}

// link enters position pos (1-based) into the index.
func (d *dir) link(pos int) {
	mask := uint32(len(d.index) - 1)
	i, step := hashName(d.ents[pos-1].name)&mask, uint32(1)
	for d.index[i] != 0 {
		i, step = (i+step)&mask, step+1
	}
	d.index[i] = uint32(pos)
}

// rebuild squeezes out the tombstones and re-derives the index, sized
// for the live entries to grow to twice their number.
func (d *dir) rebuild() {
	if d.live < len(d.ents) {
		live := make([]dirent, 0, d.live+1)
		for _, e := range d.ents {
			if e.n != nil {
				live = append(live, e)
			}
		}
		d.ents = live
	}
	if len(d.ents) < dirScanMax {
		d.index = nil
		return
	}
	size := 2 * dirScanMax
	for size*dirMaxLoad < len(d.ents)*2*dirLoadDen {
		size *= 2
	}
	d.index = make([]uint32, size)
	for i := range d.ents {
		d.link(i + 1)
	}
}

// byName returns the entries in name order, tombstones among them. It
// sorts, once, only if a name has arrived out of order since it last did.
func (d *dir) byName() []dirent {
	if !d.sorted {
		d.ents = slices.Clone(d.ents)
		slices.SortFunc(d.ents, func(a, b dirent) int { return strings.Compare(a.name, b.name) })
		d.sorted = true
		d.rebuild()
	}
	return d.ents
}
