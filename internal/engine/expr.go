package engine

import (
	"fmt"
	"strings"
)

// Expr is a scalar expression AST node. Expressions are built with the
// constructor helpers (Col, ConstI, Add, Eq, ...) and compiled into
// closures against a pipeline's register layout when the plan compiles —
// the closure chain is the "generated code" of a pipeline.
type Expr struct {
	kind exprKind
	name string
	i    int64
	f    float64
	s    string
	args []*Expr
	strs []string
	ints []int64

	// ptype is the declared type of an eParam placeholder; type checking
	// needs it before any value is bound.
	ptype Type
}

type exprKind uint8

const (
	eCol exprKind = iota
	eConstI
	eConstF
	eConstS
	eAdd
	eSub
	eMul
	eDiv
	eEq
	eNe
	eLt
	eLe
	eGt
	eGe
	eAnd
	eOr
	eNot
	eBetween
	eInInt
	eInStr
	eLike
	eNotLike
	eIf
	eYear
	eSubstr
	eToF
	eParam
)

// Col references a column of the current pipeline by name.
func Col(name string) *Expr { return &Expr{kind: eCol, name: name} }

// ConstI is an integer literal.
func ConstI(v int64) *Expr { return &Expr{kind: eConstI, i: v} }

// ConstF is a float literal.
func ConstF(v float64) *Expr { return &Expr{kind: eConstF, f: v} }

// ConstS is a string literal.
func ConstS(v string) *Expr { return &Expr{kind: eConstS, s: v} }

// ConstDate is a date literal in "YYYY-MM-DD" form.
func ConstDate(s string) *Expr { return ConstI(ParseDate(s)) }

// Arithmetic.
func Add(a, b *Expr) *Expr { return &Expr{kind: eAdd, args: []*Expr{a, b}} }
func Sub(a, b *Expr) *Expr { return &Expr{kind: eSub, args: []*Expr{a, b}} }
func Mul(a, b *Expr) *Expr { return &Expr{kind: eMul, args: []*Expr{a, b}} }
func Div(a, b *Expr) *Expr { return &Expr{kind: eDiv, args: []*Expr{a, b}} }

// Comparisons (result is a boolean 0/1 integer).
func Eq(a, b *Expr) *Expr { return &Expr{kind: eEq, args: []*Expr{a, b}} }
func Ne(a, b *Expr) *Expr { return &Expr{kind: eNe, args: []*Expr{a, b}} }
func Lt(a, b *Expr) *Expr { return &Expr{kind: eLt, args: []*Expr{a, b}} }
func Le(a, b *Expr) *Expr { return &Expr{kind: eLe, args: []*Expr{a, b}} }
func Gt(a, b *Expr) *Expr { return &Expr{kind: eGt, args: []*Expr{a, b}} }
func Ge(a, b *Expr) *Expr { return &Expr{kind: eGe, args: []*Expr{a, b}} }

// Between is lo <= a AND a <= hi.
func Between(a, lo, hi *Expr) *Expr { return &Expr{kind: eBetween, args: []*Expr{a, lo, hi}} }

// Boolean connectives.
func And(xs ...*Expr) *Expr {
	if len(xs) == 0 {
		return ConstI(1)
	}
	if len(xs) == 1 {
		return xs[0]
	}
	return &Expr{kind: eAnd, args: xs}
}

func Or(xs ...*Expr) *Expr {
	if len(xs) == 0 {
		return ConstI(0)
	}
	if len(xs) == 1 {
		return xs[0]
	}
	return &Expr{kind: eOr, args: xs}
}

func Not(a *Expr) *Expr { return &Expr{kind: eNot, args: []*Expr{a}} }

// InInt tests membership of an integer expression in a literal set.
func InInt(a *Expr, vals ...int64) *Expr { return &Expr{kind: eInInt, args: []*Expr{a}, ints: vals} }

// InStr tests membership of a string expression in a literal set.
func InStr(a *Expr, vals ...string) *Expr { return &Expr{kind: eInStr, args: []*Expr{a}, strs: vals} }

// Like matches a SQL LIKE pattern with % and _ wildcards.
func Like(a *Expr, pattern string) *Expr { return &Expr{kind: eLike, args: []*Expr{a}, s: pattern} }

// NotLike is the negation of Like.
func NotLike(a *Expr, pattern string) *Expr {
	return &Expr{kind: eNotLike, args: []*Expr{a}, s: pattern}
}

// If is CASE WHEN cond THEN a ELSE b END.
func If(cond, a, b *Expr) *Expr { return &Expr{kind: eIf, args: []*Expr{cond, a, b}} }

// Year extracts the year from a date expression.
func Year(a *Expr) *Expr { return &Expr{kind: eYear, args: []*Expr{a}} }

// Substr returns the 1-based substring of length n.
func Substr(a *Expr, start, n int64) *Expr {
	return &Expr{kind: eSubstr, args: []*Expr{a}, ints: []int64{start, n}}
}

// ToFloat casts an integer expression to float.
func ToFloat(a *Expr) *Expr { return &Expr{kind: eToF, args: []*Expr{a}} }

// Param is a query parameter placeholder with a declared type (idx is
// 1-based, matching SQL's ? ordinals). A plan holding parameters is a
// template: bind concrete values with Plan.BindArgs before running it.
func Param(idx int, t Type) *Expr { return &Expr{kind: eParam, i: int64(idx), ptype: t} }

// evalFn evaluates a compiled expression against the register file.
type evalFn func(e *Ectx) Val

// regResolver resolves column names to (register index, type).
type regResolver interface {
	resolve(name string) (int, Type)
}

// weight returns the CPU cost weight of the expression (nodes in tree).
// String pattern matching scans tens of bytes per tuple and is charged
// accordingly (Q13's NOT LIKE over order comments is a real CPU sink).
func (x *Expr) weight() float64 {
	w := 1.0
	switch x.kind {
	case eLike, eNotLike:
		w += 14
	case eSubstr, eInStr:
		w += 2
	}
	for _, a := range x.args {
		w += a.weight()
	}
	return w
}

// compile resolves names and types and returns the evaluation closure.
func (x *Expr) compile(rc regResolver) (evalFn, Type) {
	switch x.kind {
	case eCol:
		idx, t := rc.resolve(x.name)
		return func(e *Ectx) Val { return e.Regs[idx] }, t
	case eConstI:
		v := Val{I: x.i}
		return func(e *Ectx) Val { return v }, TInt
	case eConstF:
		v := Val{F: x.f}
		return func(e *Ectx) Val { return v }, TFloat
	case eConstS:
		v := Val{S: x.s}
		return func(e *Ectx) Val { return v }, TStr
	case eParam:
		// Parameterized plans type-check at build time but must be bound
		// (BindArgs) before execution; evaluating a placeholder is a bug.
		idx := x.i
		return func(e *Ectx) Val {
			panic(fmt.Sprintf("engine: unbound parameter ?%d (bind values with Plan.BindArgs)", idx))
		}, x.ptype
	case eAdd, eSub, eMul, eDiv:
		return compileArith(x, rc)
	case eEq, eNe, eLt, eLe, eGt, eGe:
		return compileCmp(x, rc)
	case eAnd:
		fns := make([]evalFn, len(x.args))
		for i, a := range x.args {
			fn, t := a.compile(rc)
			mustBool(t, "AND operand")
			fns[i] = fn
		}
		return func(e *Ectx) Val {
			for _, f := range fns {
				if f(e).I == 0 {
					return Val{I: 0}
				}
			}
			return Val{I: 1}
		}, TInt
	case eOr:
		fns := make([]evalFn, len(x.args))
		for i, a := range x.args {
			fn, t := a.compile(rc)
			mustBool(t, "OR operand")
			fns[i] = fn
		}
		return func(e *Ectx) Val {
			for _, f := range fns {
				if f(e).I != 0 {
					return Val{I: 1}
				}
			}
			return Val{I: 0}
		}, TInt
	case eNot:
		fn, t := x.args[0].compile(rc)
		mustBool(t, "NOT operand")
		return func(e *Ectx) Val {
			if fn(e).I == 0 {
				return Val{I: 1}
			}
			return Val{I: 0}
		}, TInt
	case eBetween:
		a, ta := x.args[0].compile(rc)
		lo, tl := x.args[1].compile(rc)
		hi, th := x.args[2].compile(rc)
		if ta == TStr && tl == TStr && th == TStr {
			return func(e *Ectx) Val {
				v := a(e).S
				return boolVal(lo(e).S <= v && v <= hi(e).S)
			}, TInt
		}
		if ta == TStr || tl == TStr || th == TStr {
			panic("engine: BETWEEN mixes string and numeric operands")
		}
		if ta == TFloat || tl == TFloat || th == TFloat {
			af, lof, hif := asFloat(a, ta), asFloat(lo, tl), asFloat(hi, th)
			return func(e *Ectx) Val {
				v := af(e).F
				return boolVal(lof(e).F <= v && v <= hif(e).F)
			}, TInt
		}
		return func(e *Ectx) Val {
			v := a(e).I
			return boolVal(lo(e).I <= v && v <= hi(e).I)
		}, TInt
	case eInInt:
		fn, t := x.args[0].compile(rc)
		if t != TInt {
			panic("engine: IN (int list) over non-int expression")
		}
		set := newInSet(x.ints)
		return func(e *Ectx) Val { return boolVal(set.has(fn(e).I)) }, TInt
	case eInStr:
		fn, t := x.args[0].compile(rc)
		if t != TStr {
			panic("engine: IN (string list) over non-string expression")
		}
		set := newInSet(x.strs)
		return func(e *Ectx) Val { return boolVal(set.has(fn(e).S)) }, TInt
	case eLike, eNotLike:
		fn, t := x.args[0].compile(rc)
		if t != TStr {
			panic("engine: LIKE over non-string expression")
		}
		m := compileLike(x.s)
		neg := x.kind == eNotLike
		return func(e *Ectx) Val {
			return boolVal(m(fn(e).S) != neg)
		}, TInt
	case eIf:
		c, tc := x.args[0].compile(rc)
		mustBool(tc, "CASE condition")
		a, ta := x.args[1].compile(rc)
		b, tb := x.args[2].compile(rc)
		if ta == TFloat || tb == TFloat {
			af, bf := asFloat(a, ta), asFloat(b, tb)
			return func(e *Ectx) Val {
				if c(e).I != 0 {
					return af(e)
				}
				return bf(e)
			}, TFloat
		}
		if ta != tb {
			panic(fmt.Sprintf("engine: CASE branches have types %v and %v", ta, tb))
		}
		return func(e *Ectx) Val {
			if c(e).I != 0 {
				return a(e)
			}
			return b(e)
		}, ta
	case eYear:
		fn, t := x.args[0].compile(rc)
		if t != TInt {
			panic("engine: YEAR over non-date expression")
		}
		return func(e *Ectx) Val { return Val{I: YearOf(fn(e).I)} }, TInt
	case eToF:
		fn, t := x.args[0].compile(rc)
		return asFloat(fn, t), TFloat
	case eSubstr:
		fn, t := x.args[0].compile(rc)
		if t != TStr {
			panic("engine: SUBSTR over non-string expression")
		}
		start, n := int(x.ints[0]-1), int(x.ints[1])
		return func(e *Ectx) Val {
			s := fn(e).S
			if start >= len(s) {
				return Val{S: ""}
			}
			end := start + n
			if end > len(s) {
				end = len(s)
			}
			return Val{S: s[start:end]}
		}, TStr
	default:
		panic(fmt.Sprintf("engine: unknown expression kind %d", x.kind))
	}
}

// inSetLinearMax is the longest IN list tested by comparing its values
// one by one; hashing a key costs more than that many compares.
const inSetLinearMax = 8

// inSet is the membership test of IN (literal list), shared by the row
// evaluator and the scan's selection kernels: a linear compare for the
// short lists queries actually write, a map beyond them.
type inSet[T comparable] struct {
	list []T
	m    map[T]struct{}
}

func newInSet[T comparable](vals []T) *inSet[T] {
	if len(vals) <= inSetLinearMax {
		return &inSet[T]{list: vals}
	}
	s := &inSet[T]{m: make(map[T]struct{}, len(vals))}
	for _, v := range vals {
		s.m[v] = struct{}{}
	}
	return s
}

func (s *inSet[T]) has(v T) bool {
	if s.m != nil {
		_, ok := s.m[v]
		return ok
	}
	for _, x := range s.list {
		if x == v {
			return true
		}
	}
	return false
}

func mustBool(t Type, what string) {
	if t != TInt {
		panic(fmt.Sprintf("engine: %s is not boolean", what))
	}
}

func boolVal(b bool) Val {
	if b {
		return Val{I: 1}
	}
	return Val{I: 0}
}

func asFloat(fn evalFn, t Type) evalFn {
	if t == TFloat {
		return fn
	}
	if t != TInt {
		panic("engine: cannot promote string to float")
	}
	return func(e *Ectx) Val { return Val{F: float64(fn(e).I)} }
}

func compileArith(x *Expr, rc regResolver) (evalFn, Type) {
	a, ta := x.args[0].compile(rc)
	b, tb := x.args[1].compile(rc)
	if ta == TStr || tb == TStr {
		panic("engine: arithmetic over strings")
	}
	if ta == TFloat || tb == TFloat || x.kind == eDiv {
		af, bf := asFloat(a, ta), asFloat(b, tb)
		switch x.kind {
		case eAdd:
			return func(e *Ectx) Val { return Val{F: af(e).F + bf(e).F} }, TFloat
		case eSub:
			return func(e *Ectx) Val { return Val{F: af(e).F - bf(e).F} }, TFloat
		case eMul:
			return func(e *Ectx) Val { return Val{F: af(e).F * bf(e).F} }, TFloat
		default:
			return func(e *Ectx) Val { return Val{F: af(e).F / bf(e).F} }, TFloat
		}
	}
	switch x.kind {
	case eAdd:
		return func(e *Ectx) Val { return Val{I: a(e).I + b(e).I} }, TInt
	case eSub:
		return func(e *Ectx) Val { return Val{I: a(e).I - b(e).I} }, TInt
	default:
		return func(e *Ectx) Val { return Val{I: a(e).I * b(e).I} }, TInt
	}
}

func compileCmp(x *Expr, rc regResolver) (evalFn, Type) {
	a, ta := x.args[0].compile(rc)
	b, tb := x.args[1].compile(rc)
	if (ta == TStr) != (tb == TStr) {
		panic("engine: comparing string with non-string")
	}
	kind := x.kind
	if ta == TStr {
		return func(e *Ectx) Val {
			va, vb := a(e).S, b(e).S
			return boolVal(cmpHolds(kind, strings.Compare(va, vb)))
		}, TInt
	}
	if ta == TFloat || tb == TFloat {
		af, bf := asFloat(a, ta), asFloat(b, tb)
		return func(e *Ectx) Val {
			va, vb := af(e).F, bf(e).F
			switch {
			case va < vb:
				return boolVal(cmpHolds(kind, -1))
			case va > vb:
				return boolVal(cmpHolds(kind, 1))
			default:
				return boolVal(cmpHolds(kind, 0))
			}
		}, TInt
	}
	return func(e *Ectx) Val {
		va, vb := a(e).I, b(e).I
		switch {
		case va < vb:
			return boolVal(cmpHolds(kind, -1))
		case va > vb:
			return boolVal(cmpHolds(kind, 1))
		default:
			return boolVal(cmpHolds(kind, 0))
		}
	}, TInt
}

func cmpHolds(kind exprKind, c int) bool {
	switch kind {
	case eEq:
		return c == 0
	case eNe:
		return c != 0
	case eLt:
		return c < 0
	case eLe:
		return c <= 0
	case eGt:
		return c > 0
	default:
		return c >= 0
	}
}

// compileLike turns a SQL LIKE pattern into a matcher. % matches any
// sequence, _ any single byte.
func compileLike(pattern string) func(string) bool {
	// Fast paths for the common shapes in TPC-H.
	if !strings.ContainsAny(pattern, "_") {
		segs := strings.Split(pattern, "%")
		switch {
		case len(segs) == 1:
			return func(s string) bool { return s == pattern }
		case len(segs) == 2 && segs[0] == "":
			suffix := segs[1]
			return func(s string) bool { return strings.HasSuffix(s, suffix) }
		case len(segs) == 2 && segs[1] == "":
			prefix := segs[0]
			return func(s string) bool { return strings.HasPrefix(s, prefix) }
		default:
			return func(s string) bool { return matchSegments(s, segs) }
		}
	}
	return func(s string) bool { return likeMatch(s, pattern) }
}

// matchSegments matches prefix / ordered-substrings / suffix patterns
// (no underscores).
func matchSegments(s string, segs []string) bool {
	if segs[0] != "" {
		if !strings.HasPrefix(s, segs[0]) {
			return false
		}
		s = s[len(segs[0]):]
	}
	last := len(segs) - 1
	for i := 1; i < last; i++ {
		idx := strings.Index(s, segs[i])
		if idx < 0 {
			return false
		}
		s = s[idx+len(segs[i]):]
	}
	if segs[last] != "" {
		return strings.HasSuffix(s, segs[last])
	}
	return true
}

// likeMatch is the general recursive matcher handling _ wildcards.
func likeMatch(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeMatch(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeMatch(s[1:], p[1:])
	default:
		return s != "" && s[0] == p[0] && likeMatch(s[1:], p[1:])
	}
}
