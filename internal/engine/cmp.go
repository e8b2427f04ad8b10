package engine

import "math"

// This file is the one definition of the engine's value ordering. The
// parallel sort (sort.go) partitions work by binary-searching sorted runs
// against separator keys, so its local sorts and its range-partitioned
// merge must agree on a single strict weak ordering — in particular on
// where NaN sorts.

// compareVal three-way compares two values of one register type. Floats
// follow the NaN-last convention: NaN orders after every number and ties
// with itself. NaN compares false under < and >, which would make it
// "equal" to everything — breaking the strict weak ordering that
// separator-based parallel merging relies on. nanOrder reports that the
// result came from NaN placement; callers implementing DESC keys must
// not negate such a result (NaN stays last regardless of direction, so
// ranges stay disjoint and deterministic).
func compareVal(t Type, a, b Val) (c int, nanOrder bool) {
	switch t {
	case TInt:
		switch {
		case a.I < b.I:
			return -1, false
		case a.I > b.I:
			return 1, false
		}
		return 0, false
	case TFloat:
		af, bf := a.F, b.F
		switch {
		case af < bf:
			return -1, false
		case af > bf:
			return 1, false
		case af != bf:
			// At least one NaN (NaN is the only value unequal to itself).
			aN, bN := math.IsNaN(af), math.IsNaN(bf)
			switch {
			case aN && bN:
				return 0, false // both NaN: tie, fall through to the next key
			case aN:
				return 1, true
			default:
				return -1, true
			}
		}
		return 0, false
	default:
		switch {
		case a.S < b.S:
			return -1, false
		case a.S > b.S:
			return 1, false
		}
		return 0, false
	}
}
