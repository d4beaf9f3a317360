package tlb

import (
	"math/bits"

	"shadowtlb/internal/arch"
)

// index maps (page-size class, class-aligned tag) to the slot holding
// that mapping in a one-set TLB, so a lookup costs one hash probe per
// resident page class instead of a scan of every entry.
//
// It is an open-addressed table with linear probing, sized to at most a
// quarter full, plus a bitmask of the classes that currently have at
// least one valid entry. A lookup walks only the resident classes,
// largest first, and stops at the first covering mapping. That is the
// entry a first-covering-slot scan returns as long as no two valid
// entries overlap, which the VM guarantees (it purges a range before
// installing a larger class over it) and the tlb.overlap invariant
// audits.
type index struct {
	buckets []bucket
	shift   uint // 64 - log2(len(buckets)): the hash keeps the top bits
	classes uint32
	count   [arch.NumPageClasses]int32 // valid entries per class
}

// bucket is one index slot. key is zero when the bucket is empty.
type bucket struct {
	key  uint64
	slot int32
}

// indexKey packs a mapping's class into the low bits its 4 KB-aligned
// tag leaves free. The +1 keeps every key nonzero, so zero marks an
// empty bucket.
func indexKey(tag uint64, c arch.PageSizeClass) uint64 {
	return tag | uint64(c+1)
}

func newIndex(entries int) *index {
	n := 1 << bits.Len(uint(4*entries-1))
	return &index{
		buckets: make([]bucket, n),
		shift:   uint(64 - bits.TrailingZeros(uint(n))),
	}
}

// home is key's first bucket (Fibonacci hashing: the product's top bits
// depend on every bit of the key, so tags that differ only high up, such
// as the first pages of two regions, still spread).
func (x *index) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns the slot of the valid entry covering addr, or -1.
func (x *index) find(addr uint64) int {
	mask := len(x.buckets) - 1
	for m := x.classes; m != 0; {
		c := arch.PageSizeClass(bits.Len32(m) - 1)
		m &^= 1 << c
		key := indexKey(addr&^c.Mask(), c)
		for b := x.home(key); ; b = (b + 1) & mask {
			k := x.buckets[b].key
			if k == key {
				return int(x.buckets[b].slot)
			}
			if k == 0 {
				break
			}
		}
	}
	return -1
}

// add records that slot now holds the valid entry e. The key must not
// already be present.
func (x *index) add(e *Entry, slot int) {
	key := indexKey(e.Tag, e.Class)
	mask := len(x.buckets) - 1
	b := x.home(key)
	for x.buckets[b].key != 0 {
		b = (b + 1) & mask
	}
	x.buckets[b] = bucket{key: key, slot: int32(slot)}
	x.count[e.Class]++
	x.classes |= 1 << e.Class
}

// remove forgets the valid entry e. It deletes by backward shift: later
// members of the probe run move up into the hole when their home allows
// it, so no tombstones accumulate and misses stay short.
func (x *index) remove(e *Entry) {
	key := indexKey(e.Tag, e.Class)
	mask := len(x.buckets) - 1
	i := x.home(key)
	for x.buckets[i].key != key {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.buckets[j].key != 0; j = (j + 1) & mask {
		// The bucket at j may fill the hole at i only if its home does
		// not lie cyclically in (i, j].
		if h := x.home(x.buckets[j].key); (j-h)&mask >= (j-i)&mask {
			x.buckets[i] = x.buckets[j]
			i = j
		}
	}
	x.buckets[i] = bucket{}
	if x.count[e.Class]--; x.count[e.Class] == 0 {
		x.classes &^= 1 << e.Class
	}
}
