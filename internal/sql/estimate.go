package sql

import (
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/storage"
)

// This file is the cost model: selectivity estimation for pushed-down
// predicates over the storage statistics layer (per-table row counts,
// per-column min/max/NDV), and cardinality estimation for hash joins.
// The numbers feed join ordering and build-side selection and are
// surfaced per operator through Plan.Explain, so plan choices are
// testable.
//
// Assumptions (the classic System R defaults, refreshed with sketches):
// uniform value distributions within [min, max], independent predicates
// (selectivities multiply), and containment of join key domains (the
// smaller key set is a subset of the larger; output = |R|·|S| / max NDV).

// Default selectivities where statistics cannot decide.
const (
	selDefault  = 1.0 / 3 // opaque predicate (mixed-column comparison, ...)
	selRange    = 1.0 / 3 // range predicate with an unknown bound (e.g. a parameter)
	selBetween  = 1.0 / 4 // BETWEEN with unknown bounds
	selLike     = 1.0 / 10
	selEqNoNDV  = 1.0 / 10 // equality on a column with no usable NDV
	selFloorSel = 0.0005   // predicates never estimate to exactly zero
)

// baseCard estimates t's post-filter cardinality: its row count times the
// selectivity of every predicate pushed down onto its scan, then through
// the subquery semi/anti joins lowered onto that scan (placeSubs).
// Memoized per planner (the ordering loop asks repeatedly).
func (pl *planner) baseCard(t *baseTable) float64 {
	if pl.cardMemo == nil {
		pl.cardMemo = map[*baseTable]float64{}
	}
	if c, ok := pl.cardMemo[t]; ok {
		return c
	}
	c := estFilteredCard(t, pl.local[t])
	for _, s := range pl.subs {
		if s.onScan == t {
			c = pl.subJoinCard(c, s)
		}
	}
	pl.cardMemo[t] = c
	return c
}

// estFilteredCard is baseCard for an explicit predicate list (subquery
// build scans carry their own).
func estFilteredCard(t *baseTable, preds []Expr) float64 {
	card := float64(t.rows())
	if t.derived != nil {
		// A derived table's base cardinality is its subquery's estimate
		// (the pseudo table holds no rows).
		card = max(t.derivedEst, 1)
	}
	for _, p := range preds {
		card *= predSel(t, p)
	}
	if card < 1 {
		card = 1
	}
	return card
}

// predSel estimates the selectivity of one single-table predicate.
func predSel(t *baseTable, e Expr) float64 {
	s := rawPredSel(t, e)
	if s < selFloorSel {
		return selFloorSel
	}
	if s > 1 {
		return 1
	}
	return s
}

func rawPredSel(t *baseTable, e Expr) float64 {
	switch x := e.(type) {
	case *Bin:
		switch x.Op {
		case "and":
			return predSel(t, x.L) * predSel(t, x.R)
		case "or":
			l, r := predSel(t, x.L), predSel(t, x.R)
			return l + r - l*r
		case "=":
			return eqSel(t, x.L, x.R)
		case "<>":
			return 1 - eqSel(t, x.L, x.R)
		case "<", "<=", ">", ">=":
			return rangeSel(t, x.Op, x.L, x.R)
		}
		return selDefault
	case *Not:
		return 1 - predSel(t, x.E)
	case *Between:
		s := betweenSel(t, x)
		if x.Invert {
			return 1 - s
		}
		return s
	case *InList:
		s := inListSel(t, x)
		if x.Invert {
			return 1 - s
		}
		return s
	case *LikeExpr:
		if x.Invert {
			return 1 - selLike
		}
		return selLike
	}
	return selDefault
}

// eqSel estimates col = value as 1/NDV; col = col (within one table) as
// 1/max NDV.
func eqSel(t *baseTable, l, r Expr) float64 {
	lc, lok := colStatsOf(t, l)
	rc, rok := colStatsOf(t, r)
	switch {
	case lok && rok:
		return 1 / max(ndvOf(lc), ndvOf(rc))
	case lok:
		return 1 / ndvOf(lc)
	case rok:
		return 1 / ndvOf(rc)
	default:
		return selEqNoNDV
	}
}

// rangeSel estimates col <op> bound from statistics. When the table
// carries zone maps the estimate sums per-segment overlap — on
// clustered (sorted) data each segment spans a narrow value range, so
// skew that a single whole-table [min, max] interpolation washes out is
// resolved segment by segment. Otherwise it interpolates uniformly in
// the column's [min, max]. Unknown bounds (parameters, expressions)
// fall back to selRange.
func rangeSel(t *baseTable, op string, l, r Expr) float64 {
	ce := l
	col, cok := colStatsOf(t, l)
	v, vok := litValue(r)
	if !cok || !vok {
		// Mirror: bound <op> col.
		ce = r
		col, cok = colStatsOf(t, r)
		v, vok = litValue(l)
		if !cok || !vok {
			return selRange
		}
		op = flipOp(op)
	}
	qlo, qhi := math.Inf(-1), math.Inf(1)
	if op == "<" || op == "<=" {
		qhi = v
	} else {
		qlo = v
	}
	if frac, ok := zoneFrac(t, ce, qlo, qhi); ok {
		return frac
	}
	lo, hi, ok := col.NumericRange()
	if !ok || hi <= lo {
		return selRange
	}
	frac := (v - lo) / (hi - lo)
	switch op {
	case "<", "<=":
		return clamp01(frac)
	default: // ">", ">="
		return clamp01(1 - frac)
	}
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func betweenSel(t *baseTable, x *Between) float64 {
	col, cok := colStatsOf(t, x.E)
	lov, look := litValue(x.Lo)
	hiv, hiok := litValue(x.Hi)
	if !cok || !look || !hiok {
		return selBetween
	}
	if frac, ok := zoneFrac(t, x.E, lov, hiv); ok {
		return frac
	}
	lo, hi, ok := col.NumericRange()
	if !ok || hi <= lo {
		return selBetween
	}
	return clamp01((min(hiv, hi) - max(lov, lo)) / (hi - lo))
}

// zoneFrac estimates the fraction of t's rows whose column value lies
// in [qlo, qhi] by summing per-segment interpolations over the column's
// zone maps (see internal/storage). Invalid zones (all-NaN segments)
// contribute the default range selectivity; string columns and tables
// without zone maps report ok=false so callers fall back to whole-table
// statistics.
func zoneFrac(t *baseTable, e Expr, qlo, qhi float64) (float64, bool) {
	c, ok := e.(*Col)
	if !ok {
		return 0, false
	}
	if c.Table != "" && c.Table != t.alias {
		return 0, false
	}
	if _, ok := t.cols[c.Name]; !ok {
		return 0, false
	}
	zones := t.t.ColZones(c.Name)
	if len(zones) == 0 {
		return 0, false
	}
	var total, hit float64
	for _, z := range zones {
		if z.Rows == 0 {
			continue
		}
		rows := float64(z.Rows)
		total += rows
		if !z.Valid {
			hit += rows * selRange
			continue
		}
		var zlo, zhi float64
		switch z.Type {
		case storage.I64:
			zlo, zhi = float64(z.MinI), float64(z.MaxI)
		case storage.F64:
			zlo, zhi = z.MinF, z.MaxF
		default:
			return 0, false // string zones carry no numeric range
		}
		if zhi == zlo {
			if qlo <= zlo && zlo <= qhi {
				hit += rows
			}
			continue
		}
		hit += clamp01((min(qhi, zhi)-max(qlo, zlo))/(zhi-zlo)) * rows
	}
	if total == 0 {
		return 0, false
	}
	return hit / total, true
}

func inListSel(t *baseTable, x *InList) float64 {
	n := float64(len(x.Elems))
	if col, ok := colStatsOf(t, x.E); ok {
		return clamp01(n / ndvOf(col))
	}
	return clamp01(n * selEqNoNDV)
}

// colStatsOf resolves e to a column of t and returns its statistics.
func colStatsOf(t *baseTable, e Expr) (*storage.ColStats, bool) {
	c, ok := e.(*Col)
	if !ok {
		return nil, false
	}
	if c.Table != "" && c.Table != t.alias {
		return nil, false
	}
	if _, ok := t.cols[c.Name]; !ok {
		return nil, false
	}
	cs := t.t.LiveStats().Col(c.Name)
	return cs, cs != nil
}

func ndvOf(cs *storage.ColStats) float64 {
	if cs == nil || cs.NDV < 1 {
		return 1 / selEqNoNDV
	}
	return float64(cs.NDV)
}

// litValue extracts a numeric literal (int, float, date, or a negated
// one) as a float for range math.
func litValue(e Expr) (float64, bool) {
	switch x := e.(type) {
	case *IntLit:
		return float64(x.V), true
	case *FloatLit:
		return x.V, true
	case *DateLit:
		if !validDate(x.V) {
			return 0, false
		}
		return float64(engine.ParseDate(x.V)), true
	case *Neg:
		v, ok := litValue(x.E)
		return -v, ok
	}
	return 0, false
}

// keyNDVs estimates the distinct count of one join-key expression on a
// side with the given cardinality, resolving columns in the given scope.
// raw is the column's domain NDV from the sketch; eff caps it at the
// side's post-filter cardinality (a side of N rows holds at most N
// distinct keys). Opaque expressions assume distinct keys — no
// duplication from that side — making both equal to the cardinality.
//
// Both numbers matter: the containment divisor must use raw (filters
// shrink the rows but not the key *domain* the two sides draw from —
// dividing by the clamped NDV inflates the estimate whenever both sides
// are filtered below their domain NDV), while duplication and
// match-fraction arithmetic wants eff.
func keyNDVs(sc *scope, e Expr, sideCard float64) (raw, eff float64) {
	if c, ok := e.(*Col); ok {
		if t, _, err := sc.resolveUp(c); err == nil && t != nil {
			if cs := t.t.LiveStats().Col(c.Name); cs != nil && cs.NDV > 0 {
				raw = float64(cs.NDV)
				return raw, min(raw, max(sideCard, 1))
			}
		}
	}
	return max(sideCard, 1), max(sideCard, 1)
}

// keyNDV is keyNDVs' effective (cardinality-clamped) estimate.
func keyNDV(sc *scope, e Expr, sideCard float64) float64 {
	_, eff := keyNDVs(sc, e, sideCard)
	return eff
}

// joinCard estimates hash-join output cardinality with the containment
// assumption: |probe ⨝ build| = |probe|·|build| / Π_k max(ndv_probe,
// ndv_build). Semi joins cap at the probe cardinality; anti joins take
// the complement. Probe keys resolve in the planner scope; buildSc names
// the build side's scope (differs for subquery builds).
func (pl *planner) joinCard(probeCard, buildCard float64, probeKeys, buildKeys []Expr, kind engine.JoinKind) float64 {
	return pl.joinCardScoped(probeCard, buildCard, probeKeys, buildKeys, pl.sc, kind)
}

func (pl *planner) joinCardScoped(probeCard, buildCard float64, probeKeys, buildKeys []Expr, buildSc *scope, kind engine.JoinKind) float64 {
	key, frac, unique := uniqueBuildKey(buildSc, buildKeys, buildCard)
	sel := 1.0
	extraSel := 1.0 // unique build: the key columns outside its declared key
	matchFrac := 1.0
	for i := range probeKeys {
		rawP, np := keyNDVs(pl.sc, probeKeys[i], probeCard)
		rawB, nb := keyNDVs(buildSc, buildKeys[i], buildCard)
		// Divide by the larger raw domain NDV: filters reduce rows, not
		// the domain keys are drawn from, so clamping the divisor to the
		// post-filter cardinality would inflate the output estimate.
		sel /= max(max(rawP, rawB), 1)
		if unique && !slices.Contains(key, buildKeys[i].(*Col).Name) {
			extraSel /= max(max(rawP, rawB), 1)
		}
		// Fraction of probe key values present on the build side, under
		// containment: the smaller key domain is a subset of the larger.
		matchFrac *= min(np, nb) / max(np, 1)
	}
	out := probeCard * buildCard * sel
	if unique {
		// N:1: each probe row meets at most one build row, and meets one
		// in the fraction of the build table the build side kept; a key
		// column beyond the declared key only tests that row (Q5's
		// s_nationkey = c_nationkey). Per-column NDVs would treat a
		// composite key's columns as independent and divide by their
		// product (Q9's lineitem ⨝ partsupp: ~2 400 estimated, 598 500
		// actual at SF 0.1).
		out = probeCard * frac * extraSel
	}
	switch kind {
	case engine.JoinSemi:
		out = min(out, probeCard)
	case engine.JoinAnti:
		// The pair-count bound would say "everything matches" whenever
		// the build side is large; the NDV ratio keeps the estimate
		// meaningful (Q22: the third of customers without orders).
		out = probeCard * (1 - min(matchFrac, 1))
	case engine.JoinOuterProbe:
		out = max(out, probeCard)
	}
	if out < 1 {
		out = 1
	}
	return out
}

// uniqueBuildKey reports whether the build keys are plain columns of one
// base table that cover its declared unique key and, if so, returns that
// key and the fraction of the table's rows the build side keeps
// (buildCard / table rows, capped at 1).
func uniqueBuildKey(sc *scope, buildKeys []Expr, buildCard float64) ([]string, float64, bool) {
	var owner *baseTable
	names := make([]string, len(buildKeys))
	for i, k := range buildKeys {
		c, ok := k.(*Col)
		if !ok {
			return nil, 0, false
		}
		t, _, err := sc.resolveUp(c)
		if err != nil || (owner != nil && t != owner) {
			return nil, 0, false
		}
		owner, names[i] = t, c.Name
	}
	if owner == nil || owner.derived != nil || !owner.t.HasUniqueKey(names) {
		return nil, 0, false
	}
	return owner.t.Key, min(1, buildCard/max(float64(owner.rows()), 1)), true
}

// generalInCard estimates the semi/anti join of a complex IN subquery:
// the nested planner's output estimate stands in for the build key NDV
// (grouped or distinct subquery outputs are near-unique), and the NDV
// containment ratio gives the matched probe fraction.
func (pl *planner) generalInCard(probeCard, buildNDV float64, probeKey Expr, anti bool) float64 {
	np := keyNDV(pl.sc, probeKey, probeCard)
	nb := max(buildNDV, 1)
	frac := min(min(np, nb)/max(np, 1), 1)
	if anti {
		frac = 1 - frac
	}
	return max(probeCard*frac, 1)
}

// subJoinCard estimates one subquery semi/anti join over a probe side of
// probeCard rows: a complex IN through generalInCard, a simple subquery
// through the join model over its filtered scan, each residual conjunct
// of a semi join keeping the default selectivity.
func (pl *planner) subJoinCard(probeCard float64, s *subJoinSpec) float64 {
	if s.node != nil {
		return pl.generalInCard(probeCard, s.node.Est(), s.probeKeys[0], s.anti)
	}
	est := pl.joinCardScoped(probeCard, estFilteredCard(s.t, s.local), s.probeKeys, s.buildKeys, s.sc, s.kind())
	if !s.anti {
		for range s.residual {
			est = max(est*selDefault, 1)
		}
	}
	return est
}

// markUnmatchedEst estimates the Unmatched scan of a build-side outer
// join: the preserved rows whose key value never occurs on the probing
// (nullable) side, via the same NDV containment ratio.
func (pl *planner) markUnmatchedEst(chainEst, probeCard float64, probeKeys, buildKeys []Expr) float64 {
	frac := 1.0
	for i := range probeKeys {
		np := keyNDV(pl.sc, probeKeys[i], probeCard) // nullable side keys
		nb := keyNDV(pl.sc, buildKeys[i], chainEst)  // preserved side keys
		frac *= min(np, nb) / max(nb, 1)
	}
	return max(chainEst*(1-min(frac, 1)), 1)
}

// groupKeyNDV estimates the distinct count of one GROUP BY key: sketch
// NDV for plain columns, year-count for YEAR(date), a small default
// otherwise.
func (pl *planner) groupKeyNDV(g Expr) float64 {
	switch x := g.(type) {
	case *Col:
		if t, err := pl.sc.resolve(x); err == nil && t != nil {
			if cs := t.t.LiveStats().Col(x.Name); cs != nil && cs.NDV > 0 {
				return float64(cs.NDV)
			}
		}
	case *Call:
		if x.Name == "YEAR" && len(x.Args) == 1 {
			if c, ok := x.Args[0].(*Col); ok {
				if t, err := pl.sc.resolve(c); err == nil && t != nil {
					if lo, hi, ok := t.t.LiveStats().Col(c.Name).NumericRange(); ok {
						return max(1, (hi-lo)/365.25)
					}
				}
			}
		}
	}
	return 30
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
