package sql

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/numa"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// benchSF is BenchmarkTPCH's scale factor. The default 0.1 is ~600 000
// lineitem rows; -tpch.sf 1 measures the ten-times-larger scale.
var benchSF = flag.Float64("tpch.sf", 0.1, "TPC-H scale factor of BenchmarkTPCH")

var (
	benchOnce sync.Once
	benchCat  Catalog
)

// benchCatalog generates the benchmark database on first use, with the
// table layout morseld serves (32 partitions per table, seed 42), so a
// plain `go test` run never pays for it.
func benchCatalog() Catalog {
	benchOnce.Do(func() {
		m := numa.NehalemEXMachine()
		db := tpch.Generate(tpch.Config{SF: *benchSF, Partitions: 32, Sockets: m.Topo.Sockets, Seed: 42})
		tables := map[string]*storage.Table{}
		for _, t := range []*storage.Table{db.Region, db.Nation, db.Supplier, db.Customer,
			db.Part, db.PartSupp, db.Orders, db.Lineitem} {
			tables[t.Name] = t
		}
		benchCat = func(name string) (*storage.Table, bool) { t, ok := tables[name]; return t, ok }
	})
	return benchCat
}

// BenchmarkTPCH runs each TPC-H statement end to end through the SQL
// front end (parse, plan, execute) at SF -tpch.sf (default 0.1) on real
// workers: GOMAXPROCS of them, 100 000-row morsels. Allocations are
// reported per query.
//
//	go test -run '^$' -bench 'BenchmarkTPCH/q(9|18)$' -count 5 ./internal/sql/
//	go test -run '^$' -bench 'BenchmarkTPCH/q(9|18)$' -count 5 ./internal/sql/ -tpch.sf 1
func BenchmarkTPCH(b *testing.B) {
	cat := benchCatalog()
	for _, n := range tpch.SQLCoverage() {
		query := tpch.MustSQLText(n, *benchSF)
		b.Run(fmt.Sprintf("q%d", n), func(b *testing.B) {
			s := engine.NewSession(numa.NehalemEXMachine())
			s.Mode = engine.Real
			s.Dispatch = dispatch.Config{Workers: runtime.GOMAXPROCS(0), MorselRows: 100_000}
			b.ReportAllocs()
			for b.Loop() {
				p, err := Compile(query, cat)
				if err != nil {
					b.Fatal(err)
				}
				s.Run(p)
			}
		})
	}
}
