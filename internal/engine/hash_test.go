package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

// Property tests for the typed key hash (hash.go): the hash join's build
// and probe sides share hashVals, so equal keys must hash equally however
// they were produced, column order must matter, and the bits the hash
// table consumes — high bits for the slot, low bits for the tag — must
// spread for the key shapes joins actually see.

var hashTypes = []Type{TInt, TFloat, TStr}

// randKey draws a 1–3 column key tuple plus an equal tuple built a
// different way: floats flip the sign of zero, strings are re-sliced out
// of a larger backing string.
func randKey(rng *rand.Rand) (types []Type, a, b []Val) {
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		t := hashTypes[rng.Intn(len(hashTypes))]
		types = append(types, t)
		switch t {
		case TInt:
			v := rng.Int63() >> uint(rng.Intn(64))
			if rng.Intn(2) == 0 {
				v = -v
			}
			a, b = append(a, Val{I: v}), append(b, Val{I: v})
		case TFloat:
			f := math.Round(rng.NormFloat64()*1e4) / 100
			if rng.Intn(4) == 0 {
				f = 0
			}
			g := f
			if f == 0 {
				g = math.Copysign(0, -1)
			}
			a, b = append(a, Val{F: f}), append(b, Val{F: g})
		default:
			raw := make([]byte, rng.Intn(20))
			for j := range raw {
				raw[j] = byte('a' + rng.Intn(26))
			}
			s := string(raw)
			padded := "xx" + s + "yy"
			a, b = append(a, Val{S: s}), append(b, Val{S: padded[2 : 2+len(s)]})
		}
	}
	return types, a, b
}

func TestQuickHashEqualKeysAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		types, build, probe := randKey(rng)
		return hashVals(types, build) == hashVals(types, probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHashColumnOrderMatters(t *testing.T) {
	two := func(t Type) []Type { return []Type{t, t} }
	cases := []struct {
		types []Type
		a, b  []Val
	}{
		{two(TInt), []Val{{I: 1}, {I: 2}}, []Val{{I: 2}, {I: 1}}},
		{two(TInt), []Val{{I: 0}, {I: 1 << 40}}, []Val{{I: 1 << 40}, {I: 0}}},
		{two(TFloat), []Val{{F: 1.5}, {F: 2.5}}, []Val{{F: 2.5}, {F: 1.5}}},
		{two(TStr), []Val{{S: "ab"}, {S: "c"}}, []Val{{S: "c"}, {S: "ab"}}},
		// Same concatenation, different column boundary.
		{two(TStr), []Val{{S: "ab"}, {S: "c"}}, []Val{{S: "a"}, {S: "bc"}}},
		{two(TStr), []Val{{S: ""}, {S: "x"}}, []Val{{S: "x"}, {S: ""}}},
		// A string and its zero-padded extension.
		{[]Type{TStr}, []Val{{S: "a"}}, []Val{{S: "a\x00"}}},
	}
	for i, c := range cases {
		if hashVals(c.types, c.a) == hashVals(c.types, c.b) {
			t.Errorf("case %d: %v and %v hash alike", i, c.a, c.b)
		}
	}
	f := func(x, y int64) bool {
		return x == y || hashVals(two(TInt), []Val{{I: x}, {I: y}}) != hashVals(two(TInt), []Val{{I: y}, {I: x}})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// hashFamilies are the key shapes joins actually see, as generators of
// the i-th key tuple.
func hashFamilies(rng *rand.Rand) map[string]func(i int) ([]Type, []Val) {
	ints := func(f func(i int) int64) func(i int) ([]Type, []Val) {
		return func(i int) ([]Type, []Val) { return []Type{TInt}, []Val{{I: f(i)}} }
	}
	return map[string]func(i int) ([]Type, []Val){
		"sequential":  ints(func(i int) int64 { return int64(i) }),
		"from-1e9":    ints(func(i int) int64 { return 1_000_000_000 + int64(i) }),
		"stride-1024": ints(func(i int) int64 { return int64(i) << 10 }),
		"stride-2^32": ints(func(i int) int64 { return int64(i) << 32 }),
		"negative":    ints(func(i int) int64 { return -int64(i) }),
		"random":      ints(func(int) int64 { return rng.Int63() }),
		"dates":       ints(func(i int) int64 { return 8000 + int64(i%2500) + int64(i/2500)<<20 }),
		"two-int-cols": func(i int) ([]Type, []Val) {
			return []Type{TInt, TInt}, []Val{{I: int64(i % 256)}, {I: int64(i / 256)}}
		},
		"floats":     func(i int) ([]Type, []Val) { return []Type{TFloat}, []Val{{F: float64(i) / 100}} },
		"short-strs": func(i int) ([]Type, []Val) { return []Type{TStr}, []Val{{S: fmt.Sprintf("k%06d", i)}} },
		"long-strs": func(i int) ([]Type, []Val) {
			return []Type{TStr}, []Val{{S: "Customer#" + strings.Repeat("0", 9) + fmt.Sprint(i)}}
		},
	}
}

// TestHashSpreadsOverSlotAndTagBits hashes 64k keys of each common shape
// into a table sized like the join's (two slots per key, indexed by the
// high bits) and checks occupancy, the longest chain, the 16 tag values
// taken from the low bits, and that tags stay uniform within one half of
// the slot range (slot and tag must not be correlated).
func TestHashSpreadsOverSlotAndTagBits(t *testing.T) {
	const n = 1 << 16
	const slotBits = 17
	families := hashFamilies(rand.New(rand.NewSource(1)))
	for name, gen := range families {
		slots := make([]int, 1<<slotBits)
		var tags, tagsLowHalf [16]int
		lowHalf := 0
		for i := 0; i < n; i++ {
			types, kv := gen(i)
			h := hashVals(types, kv)
			s := h >> (64 - slotBits)
			slots[s]++
			tags[h&15]++
			if s < 1<<(slotBits-1) {
				tagsLowHalf[h&15]++
				lowHalf++
			}
		}
		occupied, longest := 0, 0
		for _, c := range slots {
			if c > 0 {
				occupied++
			}
			if c > longest {
				longest = c
			}
		}
		// Uniform hashing fills 1-e^(-1/2) = 39% of the slots, i.e.
		// 0.79 n distinct ones, and chains of 8 are already rare.
		if occupied < n*70/100 {
			t.Errorf("%s: only %d of %d keys got their own slot", name, occupied, n)
		}
		if longest > 10 {
			t.Errorf("%s: longest chain %d", name, longest)
		}
		if lowHalf < n*45/100 || lowHalf > n*55/100 {
			t.Errorf("%s: %d of %d keys in the lower half of the slots", name, lowHalf, n)
		}
		for tag := range tags {
			if want := n / 16; tags[tag] < want*8/10 || tags[tag] > want*12/10 {
				t.Errorf("%s: tag %d drawn %d times, want about %d", name, tag, tags[tag], want)
			}
			if want := lowHalf / 16; tagsLowHalf[tag] < want*75/100 || tagsLowHalf[tag] > want*125/100 {
				t.Errorf("%s: tag %d drawn %d times in the lower slot half, want about %d", name, tag, tagsLowHalf[tag], want)
			}
		}
	}
}

// TestQuickJoinTypedKeys runs the property end to end: a join on a
// composite (int, float, string) key, where the build side stores the key
// through area columns and the probe side computes it from expressions,
// must find exactly the pairs a plain map finds.
func TestQuickJoinTypedKeys(t *testing.T) {
	schema := storage.Schema{
		{Name: "i", Type: storage.I64},
		{Name: "f", Type: storage.F64},
		{Name: "s", Type: storage.Str},
	}
	type key struct {
		i int64
		f float64
		s string
	}
	gen := func(rng *rand.Rand, name string, rows int) (*storage.Table, []key) {
		b := storage.NewBuilder(name, schema, 1+rng.Intn(6), "i")
		keys := make([]key, rows)
		for r := range keys {
			k := key{i: int64(rng.Intn(6)), f: float64(rng.Intn(3)) / 2, s: strings.Repeat("ab", rng.Intn(6))}
			if k.f == 0 && rng.Intn(2) == 0 {
				k.f = math.Copysign(0, -1)
			}
			keys[r] = k
			b.Append(storage.Row{k.i, k.f, k.s})
		}
		return b.Build(storage.NUMAAware, 4), keys
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		probeT, probeKeys := gen(rng, "p", 1+rng.Intn(1500))
		buildT, buildKeys := gen(rng, "b", 1+rng.Intn(400))
		s := quickSession(rng)
		if seed%2 == 0 {
			s.Mode = Real
			s.Dispatch.Workers = 1 + rng.Intn(8)
		}
		p := NewPlan("q")
		build := p.Scan(buildT, "i AS bi", "f AS bf", "s AS bs")
		p.Return(p.Scan(probeT, "i", "f", "s").
			HashJoin(build, JoinInner,
				[]*Expr{Col("i"), Col("f"), Col("s")},
				[]*Expr{Col("bi"), Col("bf"), Col("bs")}, "bi").
			GroupBy(nil, []AggDef{Count("n")}))
		res, _ := s.Run(p)
		built := map[key]int64{}
		for _, k := range buildKeys {
			k.f += 0 // -0 joins +0
			built[k]++
		}
		var want int64
		for _, k := range probeKeys {
			k.f += 0
			want += built[k]
		}
		return res.Rows()[0][0].I == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
