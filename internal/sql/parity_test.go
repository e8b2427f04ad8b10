package sql

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/numa"
	"repro/internal/tpch"
)

// The parity pin of the sort-merge trial (ARCHITECTURE.md, "Physical
// operator selection"): testdata/tpch_hash_parent.golden holds the 22
// TPC-H results captured at the last commit that still had the sort-merge
// join, with every join forced to hash. The hash join is now the only
// join, so the plan must reproduce that file at every aggregation
// promotion cap (promotionCaps), on every worker count and runner.
// Integers and strings are compared exactly; float aggregates go through sameResults' relative tolerance,
// because parallel summation order moves their last bits from run to run.

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/tpch_hash_parent.golden from the current engine")

const parityGolden = "testdata/tpch_hash_parent.golden"

var parityTypeNames = map[string]engine.Type{"int": engine.TInt, "float": engine.TFloat, "str": engine.TStr}

// writeParityGolden renders the suite's results: one "# Q<n>" header
// with the column names and types, then one tab-separated line per row,
// floats in their shortest exact form.
func writeParityGolden(t *testing.T, s *engine.Session) string {
	t.Helper()
	cat := tpchCatalog()
	var b strings.Builder
	for _, n := range tpch.SQLCoverage() {
		res, _ := s.Run(mustCompile(t, tpch.MustSQLText(n, tpchDB.Cfg.SF), cat))
		fmt.Fprintf(&b, "# Q%d", n)
		for _, r := range res.Schema {
			fmt.Fprintf(&b, "\t%s:%s", r.Name, r.Type)
		}
		b.WriteByte('\n')
		for _, row := range res.Rows() {
			for i, v := range row {
				if i > 0 {
					b.WriteByte('\t')
				}
				switch res.Schema[i].Type {
				case engine.TInt:
					b.WriteString(strconv.FormatInt(v.I, 10))
				case engine.TFloat:
					b.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
				default:
					if strings.ContainsAny(v.S, "\t\n") {
						t.Fatalf("Q%d: string %q needs escaping", n, v.S)
					}
					b.WriteString(v.S)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// readParityGolden parses the file back into one Result per query.
func readParityGolden(t *testing.T) map[int]*engine.Result {
	t.Helper()
	f, err := os.Open(parityGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[int]*engine.Result{}
	var schema []engine.Reg
	var rows [][]engine.Val
	q := 0
	flush := func() {
		if q != 0 {
			out[q] = engine.NewResult(schema, rows)
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if strings.HasPrefix(fields[0], "# Q") {
			flush()
			if q, err = strconv.Atoi(fields[0][3:]); err != nil {
				t.Fatal(err)
			}
			schema, rows = nil, nil
			for _, c := range fields[1:] {
				i := strings.LastIndexByte(c, ':')
				schema = append(schema, engine.Reg{Name: c[:i], Type: parityTypeNames[c[i+1:]]})
			}
			continue
		}
		if len(fields) != len(schema) {
			t.Fatalf("Q%d: row %q has %d fields, schema %d", q, sc.Text(), len(fields), len(schema))
		}
		row := make([]engine.Val, len(fields))
		for i, s := range fields {
			switch schema[i].Type {
			case engine.TInt:
				row[i].I, err = strconv.ParseInt(s, 10, 64)
			case engine.TFloat:
				row[i].F, err = strconv.ParseFloat(s, 64)
			default:
				row[i].S = s
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	flush()
	return out
}

func TestTPCHHashParityWithParent(t *testing.T) {
	if *updateParity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGolden, []byte(writeParityGolden(t, goldenSession())), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readParityGolden(t)
	if len(want) != 22 {
		t.Fatalf("%s holds %d queries, want 22", parityGolden, len(want))
	}
	workerCounts := []int{1, 2, 8}
	if testing.Short() {
		workerCounts = []int{2}
	}
	cat := tpchCatalog()
	for _, pc := range promotionCaps {
		for _, workers := range workerCounts {
			for _, mode := range []engine.Mode{engine.Sim, engine.Real} {
				name := fmt.Sprintf("agg=%s/workers=%d/real=%v", pc.label, workers, mode == engine.Real)
				t.Run(name, func(t *testing.T) {
					defer setPromotionCap(pc.capacity)()
					s := engine.NewSession(numa.NehalemEXMachine())
					s.Mode = mode
					s.Dispatch.Workers = workers
					s.Dispatch.MorselRows = 1000
					for _, n := range tpch.SQLCoverage() {
						p := mustCompile(t, tpch.MustSQLText(n, tpchDB.Cfg.SF), cat)
						got, _ := s.Run(p)
						for i, r := range got.Schema {
							if w := want[n].Schema[i]; r != w {
								t.Fatalf("Q%d column %d is %v, parent had %v", n, i, r, w)
							}
						}
						sameResults(t, fmt.Sprintf("Q%d vs parent", n), got, want[n], coverageOrdered[n])
					}
				})
			}
		}
	}
}
