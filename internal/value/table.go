package value

import "math"

// smallTable is the entry count up to which a hashTable is probed by a
// linear scan over its hashes (eight uint64s are one cache line) and no
// bucket array exists at all; it is also the capacity a set's first element
// allocates. Nest groups and set-valued attributes are overwhelmingly this
// small. Measured with the root bench_test.go at cutoffs 0/4/8/16/32:
// BenchmarkNestJoinMaterialize/S4000 27.6/24.8/20.4/22.2/25.6 ms and
// BenchmarkSetAdd/8 520/300/190/250/430 ns — below 8 the table's allocation
// and rebuilds dominate, above it the unused capacity does.
const smallTable = 8

// fibMix scatters hashes across power-of-two bucket arrays (Fibonacci
// hashing: multiply by 2^64/φ, keep the high bits). FNV-1a's low bits depend
// only on the low bits of its input bytes, so masking them would cluster.
const fibMix uint64 = 0x9E3779B97F4A7C15

// hashTable is the package's one hash table: a multimap from a 64-bit hash to
// the positions 0..n-1 that carry it, held in flat pointer-free arrays the
// garbage collector never scans. Set keeps one beside its elements; Index
// exports it read-only to the join operators.
//
// Up to smallTable entries links stays nil and lookups scan hashes. Beyond,
// links[:1<<bits] are the bucket heads and links[1<<bits:][i] is entry i's
// chain link; both hold 1-based positions, 0 ends a chain. Positions are
// int32, which caps a table at 2³¹−1 entries (push and NewIndex panic rather
// than wrap).
type hashTable struct {
	hashes []uint64
	links  []int32
	bits   uint8
}

func (t *hashTable) bucket(h uint64) int { return int((h * fibMix) >> (64 - t.bits)) }

// first returns the first position whose hash is h, or -1.
func (t *hashTable) first(h uint64) int {
	if t.links == nil {
		return t.scan(0, h)
	}
	return t.chain(t.links[t.bucket(h)], h)
}

// after returns the next position carrying the same hash as position i, or
// -1. After rehash the positions of one hash come back in ascending order;
// push prepends, so a table grown by push makes no order promise.
func (t *hashTable) after(i int) int {
	if t.links == nil {
		return t.scan(i+1, t.hashes[i])
	}
	return t.chain(t.links[1<<t.bits+i], t.hashes[i])
}

func (t *hashTable) scan(from int, h uint64) int {
	for i := from; i < len(t.hashes); i++ {
		if t.hashes[i] == h {
			return i
		}
	}
	return -1
}

func (t *hashTable) chain(p int32, h uint64) int {
	for ; p != 0; p = t.links[1<<t.bits+int(p)-1] {
		if t.hashes[p-1] == h {
			return int(p - 1)
		}
	}
	return -1
}

// push appends an entry with hash h at position len(hashes).
func (t *hashTable) push(h uint64) {
	n := len(t.hashes)
	if n >= math.MaxInt32 {
		panic("value: hash table exceeds 2^31-1 entries")
	}
	t.hashes = append(t.hashes, h)
	switch {
	case n < smallTable:
	case t.links == nil || n >= 1<<t.bits/2:
		t.rehash(cap(t.hashes))
	default:
		b := t.bucket(h)
		t.links = append(t.links, t.links[b])
		t.links[b] = int32(n + 1)
	}
}

// rehash rebuilds links over all current entries with at least two buckets
// per entry of capacity (which is at least the entry count), linking back to
// front so that every chain ascends.
func (t *hashTable) rehash(capacity int) {
	t.bits = 4
	for 1<<t.bits < 2*capacity {
		t.bits++
	}
	nb, n := 1<<t.bits, len(t.hashes)
	t.links = make([]int32, nb+n, nb+capacity)
	for i := n - 1; i >= 0; i-- {
		b := t.bucket(t.hashes[i])
		t.links[nb+i] = t.links[b]
		t.links[b] = int32(i + 1)
	}
}

// clone returns a copy with exactly allocated backing arrays.
func (t *hashTable) clone() hashTable {
	c := hashTable{hashes: make([]uint64, len(t.hashes)), bits: t.bits}
	copy(c.hashes, t.hashes)
	if t.links != nil {
		c.links = make([]int32, len(t.links))
		copy(c.links, t.links)
	}
	return c
}

// Index is a read-only multimap from a hash to the positions of a slice that
// carry it — the build side of a hash join: position i stands for build row
// i, whose key hashed to hashes[i]. A probe walks the candidates of its
// key's hash and confirms each with Equal:
//
//	for i := ix.First(h); i >= 0; i = ix.Next(i) { ... keys[i] ... }
//
// Candidates come back in ascending position, so a join emits matches in
// build order. An Index is immutable once built and safe for concurrent
// probes.
type Index struct{ t hashTable }

// NewIndex builds an index over hashes, which it retains; the caller must not
// modify the slice afterwards.
func NewIndex(hashes []uint64) *Index {
	if len(hashes) > math.MaxInt32 {
		panic("value: hash table exceeds 2^31-1 entries")
	}
	ix := &Index{t: hashTable{hashes: hashes}}
	if len(hashes) > smallTable {
		ix.t.rehash(len(hashes))
	}
	return ix
}

// First returns the lowest position whose hash is h, or -1.
func (ix *Index) First(h uint64) int { return ix.t.first(h) }

// Next returns the next higher position with the same hash as position i, or
// -1.
func (ix *Index) Next(i int) int { return ix.t.after(i) }
