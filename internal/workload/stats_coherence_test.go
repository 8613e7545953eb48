package workload

import (
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"hybriddb/internal/stats"
	"hybriddb/internal/value"
)

// scratchHistogram builds a column's histogram from scratch out of a
// full AllRows copy, block-sampled and seeded exactly as
// Table.Histogram seeds its sample.
func scratchHistogram(rows []value.Row, col int) *stats.Histogram {
	rng := rand.New(rand.NewSource(int64(len(rows))*31 + int64(col)))
	sample := stats.BlockSample(rows, 128, 20000, rng, true)
	vals := make([]value.Value, len(sample.Rows))
	for i, r := range sample.Rows {
		vals[i] = r[col]
	}
	return stats.BuildHistogram(vals, 64, sample.Fraction)
}

// scratchRef is a from-scratch histogram with the column it was built
// from, in AllRows order. The build is a pure function of that column,
// so it is rebuilt only when the column differs.
type scratchRef struct {
	col []value.Value
	h   *stats.Histogram
}

// dmlTarget extracts the table a TPC-C write statement modifies.
var dmlTarget = regexp.MustCompile(`^(?:UPDATE (?:TOP \(\d+\) )?|INSERT INTO |DELETE (?:TOP \d+ )?FROM )(\w+)`)

// TestCHHistogramCacheCoherent runs a seeded TPC-C stream against the
// CH database with the benchmark's hybrid design and checks, after
// every statement, that every cached histogram of every table equals a
// from-scratch build. The tables the stream updates in place (stock,
// orderline, district, customer) exceed the 20 000-row sample target
// or keep their histograms across writes, so a histogram kept when a
// rebuild would differ shows up here.
func TestCHHistogramCacheCoherent(t *testing.T) {
	cfg := DefaultCH()
	cfg.Warehouses = 2
	cfg.CustomersPerD = 60
	cfg.OrdersPerD = 120
	cfg.ItemCount = 11000 // stock: 22 000 rows
	db := BuildCH(model(), cfg)
	for _, name := range []string{"orderline", "oorder", "stock"} {
		if _, err := db.Exec("CREATE NONCLUSTERED COLUMNSTORE INDEX csi_" + name + " ON " + name); err != nil {
			t.Fatal(err)
		}
	}
	refs := map[string]map[int]scratchRef{}
	dirty := map[string]bool{}
	check := func(stmt string) {
		t.Helper()
		if m := dmlTarget.FindStringSubmatch(stmt); m != nil {
			dirty[m[1]] = true
		}
		for name, tb := range db.Tables() {
			cached := tb.CachedHistograms()
			if refs[name] == nil {
				refs[name] = map[int]scratchRef{}
			}
			var rows []value.Row
			if dirty[name] {
				// The memo is only revalidated for cached columns.
				for col := range refs[name] {
					if cached[col] == nil {
						delete(refs[name], col)
					}
				}
			}
			for col, h := range cached {
				ref, ok := refs[name][col]
				if !ok || dirty[name] {
					if rows == nil {
						rows, _ = tb.AllRows(nil)
					}
					vals := make([]value.Value, len(rows))
					for i, r := range rows {
						vals[i] = r[col]
					}
					if !ok || !slices.EqualFunc(ref.col, vals, value.Identical) {
						ref = scratchRef{col: vals, h: scratchHistogram(rows, col)}
						refs[name][col] = ref
					}
				}
				if !reflect.DeepEqual(h, ref.h) {
					t.Fatalf("after %q: %s column %d: cached histogram differs from a from-scratch build", stmt, name, col)
				}
			}
			dirty[name] = false
		}
	}
	for _, q := range CHQueries() {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		check(q)
	}
	rng := rand.New(rand.NewSource(5))
	txns := CHTransactions()
	weights := []int{45, 43, 4, 4, 4} // NewOrder, Payment, OrderStatus, Delivery, StockLevel
	for i := 0; i < 300; i++ {
		k, r := 0, rng.Intn(100)
		for r >= weights[k] {
			r -= weights[k]
			k++
		}
		for _, stmt := range txns[k].Gen(rng, cfg) {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatalf("%s: %q: %v", txns[k].Name, stmt, err)
			}
			check(stmt)
		}
	}
}
