package engine

import "math"

// Key hashing for joins and grouping. One word-at-a-time mix serves every
// key type: each int or float value costs one multiply-xorshift, strings
// and encoded group keys are folded eight bytes at a time, and a final
// multiply avalanches everything into the high bits, which pick the
// hash-table slot (hashtable.Table and groupTable both index by
// hash >> shift). The closing xorshift folds bits 32 and up — mixed, but
// below any realistic slot index — into the low bits, which feed the join
// table's 16-bit filter tag and the aggregation's partition number, so
// those stay independent of the slot.
const (
	hashSeed = 0x9E3779B97F4A7C15
	hashMulA = 0xFF51AFD7ED558CCD
	hashMulB = 0xC4CEB9FE1A85EC53
)

// mixWord folds one 64-bit word into the running hash.
func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * hashMulA
	return h ^ h>>32
}

// finishHash is the final avalanche (see the comment above).
func finishHash(h uint64) uint64 {
	h *= hashMulB
	return h ^ h>>32
}

// mixBytes folds a length-prefixed byte string into the running hash,
// eight bytes per step; the length keeps "ab","c" and "a","bc" apart.
func mixBytes[T string | []byte](h uint64, s T) uint64 {
	h = mixWord(h, uint64(len(s)))
	for len(s) >= 8 {
		h = mixWord(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var w uint64
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h = mixWord(h, w)
	}
	return h
}

// floatWord is the word a float key is hashed and group-encoded as: -0 ==
// +0 must hash alike, and every NaN is one group key.
func floatWord(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return canonicalNaN
	}
	return math.Float64bits(f)
}

var canonicalNaN = math.Float64bits(math.NaN())

// hashVals hashes a typed key tuple. It is the one definition the hash
// join's build and probe sides share: equal keys (by keysEqual) hash
// equally, including +0 and -0. The batch probe and the batch build fold
// the same three steps — seed, one mix per key column, finishHash — over a
// chunk's key columns (hashKeys) and must agree with it bit for bit.
func hashVals(types []Type, kv []Val) uint64 {
	h := uint64(hashSeed)
	for i, t := range types {
		switch t {
		case TInt:
			h = mixWord(h, uint64(kv[i].I))
		case TFloat:
			h = mixWord(h, floatWord(kv[i].F))
		default:
			h = mixBytes(h, kv[i].S)
		}
	}
	return finishHash(h)
}

// hashBytes hashes an encoded group key (see encodeVal).
func hashBytes(b []byte) uint64 {
	return finishHash(mixBytes(hashSeed, b))
}
