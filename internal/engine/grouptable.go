package engine

import (
	"bytes"
	"math"
	"math/bits"
)

// groupTable is the aggregation hash table of both phases (§4.4): a
// columnar run of (encoded group key, partial aggregate) entries — key
// bytes in one arena, hashes, accumulators and tuple counts in flat slabs
// indexed by entry number — under an open-addressing slot index (linear
// probing, at most half full, slot chosen by the hash's high bits like the
// join table). A lookup touches the slot array, the hash slab and — on a
// hash match — the key arena; nothing is allocated per input row, and a
// new group costs amortized slab growth only.
type groupTable struct {
	aggs   []AggDef
	keys   []byte    // encoded keys (encodeVal), concatenated
	offs   []int     // entry i's key is keys[offs[i]:offs[i+1]]
	hashes []uint64  // hashBytes of each key
	accs   []float64 // len(aggs) accumulators per entry
	counts []int64   // tuples folded into each entry (COUNT, AVG)
	slots  []uint32  // entry number + 1; 0 = empty
	shift  uint      // slot = hash >> shift
}

func (t *groupTable) len() int { return len(t.hashes) }

func (t *groupTable) key(i int) []byte { return t.keys[t.offs[i]:t.offs[i+1]] }

func (t *groupTable) accsOf(i int) []float64 {
	n := len(t.aggs)
	return t.accs[i*n : (i+1)*n]
}

// entryBytes is the modelled size of entry i (key, accumulators, count).
func (t *groupTable) entryBytes(i int) int64 {
	return int64(t.offs[i+1]-t.offs[i]) + int64(8*len(t.aggs)) + 8
}

// reset empties the table, keeping its slabs and slot array.
func (t *groupTable) reset() {
	t.keys, t.offs, t.hashes = t.keys[:0], t.offs[:0], t.hashes[:0]
	t.accs, t.counts = t.accs[:0], t.counts[:0]
	clear(t.slots)
}

// reserve makes room for n more entries and keyBytes more key bytes.
func (t *groupTable) reserve(n, keyBytes int) {
	t.keys = growCap(t.keys, len(t.keys)+keyBytes)
	t.offs = growCap(t.offs, len(t.hashes)+n+1)
	t.hashes = growCap(t.hashes, len(t.hashes)+n)
	t.accs = growCap(t.accs, len(t.accs)+n*len(t.aggs))
	t.counts = growCap(t.counts, len(t.counts)+n)
}

// growCap returns s with a capacity of exactly c if it has less.
func growCap[T any](s []T, c int) []T {
	if cap(s) >= c {
		return s
	}
	grown := make([]T, len(s), c)
	copy(grown, s)
	return grown
}

// add appends an entry with freshly initialized accumulators and returns
// its number. A full slab doubles exactly: append alone grows a large
// slab by about a quarter at a time, so a table of many groups would
// allocate several times its final size.
func (t *groupTable) add(h uint64, key []byte) int {
	if len(t.hashes) == cap(t.hashes) {
		t.reserve(max(len(t.hashes), 8), 0)
	}
	if cap(t.keys)-len(t.keys) < len(key) {
		t.keys = growCap(t.keys, 2*len(t.keys)+8*len(key))
	}
	if len(t.offs) == 0 {
		t.offs = append(t.offs, 0)
	}
	t.keys = append(t.keys, key...)
	t.offs = append(t.offs, len(t.keys))
	t.hashes = append(t.hashes, h)
	t.counts = append(t.counts, 0)
	for _, d := range t.aggs {
		init := 0.0
		switch d.Kind {
		case AggMin:
			init = math.Inf(1)
		case AggMax:
			init = math.Inf(-1)
		}
		t.accs = append(t.accs, init)
	}
	return len(t.hashes) - 1
}

// merge folds a partial aggregate of count tuples into entry i; one input
// tuple is the partial aggregate of itself, with count 1.
func (t *groupTable) merge(i int, accs []float64, count int64) {
	dst := t.accsOf(i)
	for k, d := range t.aggs {
		switch d.Kind {
		case AggSum, AggAvg:
			dst[k] += accs[k]
		case AggMin:
			if accs[k] < dst[k] {
				dst[k] = accs[k]
			}
		case AggMax:
			if accs[k] > dst[k] {
				dst[k] = accs[k]
			}
		}
	}
	t.counts[i] += count
}

// fold merges one input column into aggregate k: vals[j] goes to entry
// gids[j], and rows with a negative entry (already merged elsewhere) are
// skipped. It is merge turned sideways — one aggregate over many
// tuples instead of many aggregates over one.
func (t *groupTable) fold(gids []int32, k int, vals []float64) {
	n, accs := len(t.aggs), t.accs
	switch t.aggs[k].Kind {
	case AggSum, AggAvg:
		for j, g := range gids {
			if g >= 0 {
				accs[int(g)*n+k] += vals[j]
			}
		}
	case AggMin:
		for j, g := range gids {
			if g >= 0 && vals[j] < accs[int(g)*n+k] {
				accs[int(g)*n+k] = vals[j]
			}
		}
	case AggMax:
		for j, g := range gids {
			if g >= 0 && vals[j] > accs[int(g)*n+k] {
				accs[int(g)*n+k] = vals[j]
			}
		}
	}
}

// foldInto is fold with every value going to the one entry g.
func (t *groupTable) foldInto(g, k int, vals []float64) {
	acc := t.accs[g*len(t.aggs)+k]
	switch t.aggs[k].Kind {
	case AggSum, AggAvg:
		for _, v := range vals {
			acc += v
		}
	case AggMin:
		for _, v := range vals {
			if v < acc {
				acc = v
			}
		}
	case AggMax:
		for _, v := range vals {
			if v > acc {
				acc = v
			}
		}
	}
	t.accs[g*len(t.aggs)+k] = acc
}

// output converts aggregate k of entry i to its output value.
func (t *groupTable) output(i, k int, outType Type) Val {
	switch t.aggs[k].Kind {
	case AggCount:
		return Val{I: t.counts[i]}
	case AggAvg:
		if t.counts[i] == 0 {
			return Val{F: 0}
		}
		return Val{F: t.accsOf(i)[k] / float64(t.counts[i])}
	default:
		v := t.accsOf(i)[k]
		if math.IsInf(v, 0) {
			v = 0 // empty MIN/MAX group (global aggregate)
		}
		if outType == TInt {
			return Val{I: int64(math.Round(v))}
		}
		return Val{F: v}
	}
}

const groupTableMinSlots = 16

// newGroupTable returns an empty table that takes n groups, with keyBytes
// of keys among them, before it grows.
func newGroupTable(aggs []AggDef, n, keyBytes int) *groupTable {
	t := &groupTable{aggs: aggs}
	slots := groupTableMinSlots
	for slots < 2*n {
		slots *= 2
	}
	t.setSlots(slots)
	if n > 0 {
		t.reserve(n, keyBytes)
	}
	return t
}

func (t *groupTable) setSlots(n int) {
	t.slots = make([]uint32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// find returns the entry holding key, or -1.
func (t *groupTable) find(h uint64, key []byte) int {
	mask := uint64(len(t.slots) - 1)
	for s := h >> t.shift; ; s = (s + 1) & mask {
		g := int(t.slots[s]) - 1
		if g < 0 {
			return -1
		}
		if t.hashes[g] == h && bytes.Equal(t.key(g), key) {
			return g
		}
	}
}

// insert adds a key known to be absent and returns its entry number.
func (t *groupTable) insert(h uint64, key []byte) int {
	if 2*(t.len()+1) > len(t.slots) {
		t.setSlots(2 * len(t.slots))
		for g, gh := range t.hashes {
			t.link(gh, g)
		}
	}
	g := t.add(h, key)
	t.link(h, g)
	return g
}

func (t *groupTable) link(h uint64, g int) {
	mask := uint64(len(t.slots) - 1)
	s := h >> t.shift
	for t.slots[s] != 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = uint32(g + 1)
}

// mergeEntry folds entry i of src into the table, creating its group as
// needed, and returns the modelled bytes read.
func (t *groupTable) mergeEntry(src *groupTable, i int) int64 {
	h, key := src.hashes[i], src.key(i)
	g := t.find(h, key)
	if g < 0 {
		g = t.insert(h, key)
	}
	t.merge(g, src.accsOf(i), src.counts[i])
	return src.entryBytes(i)
}
