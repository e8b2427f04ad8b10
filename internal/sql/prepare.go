package sql

import (
	"fmt"

	"repro/internal/engine"
)

// Prepared is a compiled, possibly parameterized statement: parsed,
// bound, cost-optimized and lowered exactly once. The embedded plan is
// an immutable template — Bind stamps out a per-execution plan with the
// ? placeholders replaced by values, so servers can cache Prepared
// objects and skip parse/bind/optimize per request.
type Prepared struct {
	SQL     string
	Plan    *engine.Plan
	NParams int
}

// Prepare compiles one SELECT statement (which may contain ? parameter
// placeholders) into a reusable prepared statement.
func Prepare(query, name string, cat Catalog) (*Prepared, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	p, err := PlanSelect(stmt, name, cat)
	if err != nil {
		return nil, err
	}
	// Every placeholder must survive into the plan with a consistent
	// type: a ? in a position the planner discards (e.g. an EXISTS
	// subquery's select list) could otherwise never be bound — surface
	// that at prepare time, not on every execution.
	types, terr := p.ParamTypes()
	if terr != nil {
		return nil, &ParseError{Msg: fmt.Sprintf(
			"%v (a ? in an ignored position, such as an EXISTS select list, cannot be bound)", terr)}
	}
	if len(types) != stmt.NParams {
		return nil, &ParseError{Msg: fmt.Sprintf(
			"statement has %d placeholders but only %d reach the plan (a ? in an ignored position, such as an EXISTS select list, cannot be bound)",
			stmt.NParams, len(types))}
	}
	return &Prepared{SQL: query, Plan: p, NParams: stmt.NParams}, nil
}

// Bind returns an executable plan with args bound to the placeholders in
// order (args[0] binds ?1). Integer parameters accept 'YYYY-MM-DD'
// strings for date columns. For a statement without placeholders Bind
// returns the shared plan itself.
func (pr *Prepared) Bind(args ...any) (*engine.Plan, error) {
	return pr.Plan.BindArgs(args...)
}
