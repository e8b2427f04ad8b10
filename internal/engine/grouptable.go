package engine

import (
	"bytes"
	"math"
	"math/bits"
)

// groupRows is a columnar run of (encoded group key, partial aggregate)
// entries: key bytes in one arena, hashes, accumulators and tuple counts
// in flat slabs indexed by entry number. It is the layout of both the
// overflow partitions of the two-phase aggregation (§4.4) and — with a
// slot index on top, see groupTable — its hash tables. Appending an entry
// allocates nothing once the slabs have grown.
type groupRows struct {
	aggs   []AggDef
	keys   []byte    // encoded keys (encodeVal), concatenated
	offs   []int     // entry i's key is keys[offs[i]:offs[i+1]]
	hashes []uint64  // hashBytes of each key
	accs   []float64 // len(aggs) accumulators per entry
	counts []int64   // tuples folded into each entry (COUNT, AVG)
}

func (r *groupRows) len() int { return len(r.hashes) }

func (r *groupRows) key(i int) []byte { return r.keys[r.offs[i]:r.offs[i+1]] }

func (r *groupRows) accsOf(i int) []float64 {
	n := len(r.aggs)
	return r.accs[i*n : (i+1)*n]
}

// entryBytes is the modelled size of entry i (key, accumulators, count).
func (r *groupRows) entryBytes(i int) int64 {
	return int64(r.offs[i+1]-r.offs[i]) + int64(8*len(r.aggs)) + 8
}

// reset empties the run, keeping its slabs.
func (r *groupRows) reset() {
	r.keys, r.offs, r.hashes = r.keys[:0], r.offs[:0], r.hashes[:0]
	r.accs, r.counts = r.accs[:0], r.counts[:0]
}

// add appends an entry with freshly initialized accumulators and returns
// its number.
func (r *groupRows) add(h uint64, key []byte) int {
	if len(r.offs) == 0 {
		r.offs = append(r.offs, 0)
	}
	r.keys = append(r.keys, key...)
	r.offs = append(r.offs, len(r.keys))
	r.hashes = append(r.hashes, h)
	r.counts = append(r.counts, 0)
	for _, d := range r.aggs {
		init := 0.0
		switch d.Kind {
		case AggMin:
			init = math.Inf(1)
		case AggMax:
			init = math.Inf(-1)
		}
		r.accs = append(r.accs, init)
	}
	return len(r.hashes) - 1
}

// merge folds a partial aggregate of count tuples into entry i; one input
// tuple is the partial aggregate of itself, with count 1.
func (r *groupRows) merge(i int, accs []float64, count int64) {
	dst := r.accsOf(i)
	for k, d := range r.aggs {
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
	r.counts[i] += count
}

// fold merges one input column into aggregate k: vals[j] goes to entry
// gids[j], and rows with a negative entry (cold keys, already spilled)
// are skipped. It is merge turned sideways — one aggregate over many
// tuples instead of many aggregates over one.
func (r *groupRows) fold(gids []int32, k int, vals []float64) {
	n, accs := len(r.aggs), r.accs
	switch r.aggs[k].Kind {
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
func (r *groupRows) foldInto(g, k int, vals []float64) {
	acc := r.accs[g*len(r.aggs)+k]
	switch r.aggs[k].Kind {
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
	r.accs[g*len(r.aggs)+k] = acc
}

// output converts aggregate k of entry i to its output value.
func (r *groupRows) output(i, k int, outType Type) Val {
	switch r.aggs[k].Kind {
	case AggCount:
		return Val{I: r.counts[i]}
	case AggAvg:
		if r.counts[i] == 0 {
			return Val{F: 0}
		}
		return Val{F: r.accsOf(i)[k] / float64(r.counts[i])}
	default:
		v := r.accsOf(i)[k]
		if math.IsInf(v, 0) {
			v = 0 // empty MIN/MAX group (global aggregate)
		}
		if outType == TInt {
			return Val{I: int64(math.Round(v))}
		}
		return Val{F: v}
	}
}

// groupTable is the aggregation hash table of both engines and both
// phases: groupRows plus an open-addressing slot index (linear probing,
// at most half full, slot chosen by the hash's high bits like the join
// table). A lookup touches the slot array, the hash slab and — on a hash
// match — the key arena; nothing is allocated per input row, and a new
// group costs amortized slab growth only.
type groupTable struct {
	groupRows
	slots []uint32 // entry number + 1; 0 = empty
	shift uint     // slot = hash >> shift
}

const groupTableMinSlots = 16

func newGroupTable(aggs []AggDef) *groupTable {
	t := &groupTable{groupRows: groupRows{aggs: aggs}}
	t.setSlots(groupTableMinSlots)
	return t
}

func (t *groupTable) setSlots(n int) {
	t.slots = make([]uint32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// reset empties the table, keeping its slabs and slot array.
func (t *groupTable) reset() {
	t.groupRows.reset()
	clear(t.slots)
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

// mergeFrom folds every entry of src into the table, creating groups as
// needed, and returns the modelled bytes read.
func (t *groupTable) mergeFrom(src *groupRows) int64 {
	var read int64
	for i, h := range src.hashes {
		key := src.key(i)
		g := t.find(h, key)
		if g < 0 {
			g = t.insert(h, key)
		}
		t.merge(g, src.accsOf(i), src.counts[i])
		read += src.entryBytes(i)
	}
	return read
}
