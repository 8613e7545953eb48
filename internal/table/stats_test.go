package table

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hybriddb/internal/stats"
	"hybriddb/internal/storage"
	"hybriddb/internal/value"
)

// refHistogram is the from-scratch histogram build: materialize every
// row, block-sample the copy, and build from the sampled column. The
// table's cached, sample-only histograms must match it bit for bit.
func refHistogram(tb *Table, col int) *stats.Histogram {
	rows, _ := tb.AllRows(nil)
	rng := rand.New(rand.NewSource(int64(len(rows))*31 + int64(col)))
	sample := stats.BlockSample(rows, 128, 20000, rng, true)
	vals := make([]value.Value, len(sample.Rows))
	for i, r := range sample.Rows {
		vals[i] = r[col]
	}
	return stats.BuildHistogram(vals, 64, sample.Fraction)
}

// sampleRow is row i of the sampling tables: an int key, then an int,
// a float and a string column, each with NULLs; the float column also
// holds both signed zeros.
func sampleRow(i int, rng *rand.Rand) value.Row {
	v, f, s := value.Null, value.Null, value.Null
	if i%7 != 0 {
		v = value.NewInt(int64(rng.Intn(50)))
	}
	switch {
	case i%11 == 0:
	case i%13 == 0:
		f = value.NewFloat(math.Copysign(0, -1))
	case i%17 == 0:
		f = value.NewFloat(0)
	default:
		f = value.NewFloat(rng.Float64() * 100)
	}
	if i%5 != 0 {
		s = value.NewString(fmt.Sprintf("s%03d", rng.Intn(300)))
	}
	return value.Row{value.NewInt(int64(i)), v, f, s}
}

// sampleTable builds an n-row table on the given primary, then deletes
// rows spread over it and inserts as many new ones. On a columnstore
// primary that leaves deleted rows in the compressed rowgroups' delete
// bitmaps and live rows in the delta store.
func sampleTable(t *testing.T, kind PrimaryKind, n int) *Table {
	t.Helper()
	sch := value.NewSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "v", Kind: value.KindInt},
		value.Column{Name: "f", Kind: value.KindFloat},
		value.Column{Name: "s", Kind: value.KindString},
	)
	tb := New(storage.NewStore(0), "samp", sch, []int{0})
	tb.SetRowGroupSize(1024)
	rng := rand.New(rand.NewSource(int64(n) + 1))
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = sampleRow(i, rng)
	}
	tb.BulkLoad(nil, rows)
	tb.ConvertPrimary(nil, kind, []int{0})
	churn := min(n, 3+n/50)
	if churn > 0 {
		all, uids := tb.AllRows(nil)
		var matches []Match
		for i := 0; i < churn; i++ {
			p := i * len(all) / churn
			matches = append(matches, Match{Row: all[p].Clone(), UID: uids[p]})
		}
		tb.Delete(nil, matches)
		for i := 0; i < churn; i++ {
			tb.Insert(nil, sampleRow(n+i, rng))
		}
	}
	if got := tb.RowCount(); got != int64(n) {
		t.Fatalf("%s n=%d: RowCount = %d", kind, n, got)
	}
	return tb
}

var (
	samplePrimaries = []PrimaryKind{PrimaryHeap, PrimaryBTree, PrimaryColumnstore}
	sampleSizes     = []int{0, 1, 127, 128, 129, 20000, 20128, 60000}
)

func sameRows(a, b []value.Row) bool {
	return slices.EqualFunc(a, b, func(x, y value.Row) bool {
		return slices.EqualFunc(x, y, value.Identical)
	})
}

func project(rows []value.Row, cols ...int) []value.Row {
	var out []value.Row
	for _, r := range rows {
		p := make(value.Row, len(cols))
		for i, c := range cols {
			p[i] = r[c]
		}
		out = append(out, p)
	}
	return out
}

// TestBlockSampleMatchesAllRows checks that the table's walking
// sampler draws exactly the sample stats.BlockSample draws from a full
// AllRows copy — same rows, same order, same fraction — and leaves the
// rng in the same state, on every primary and at block-boundary sizes.
func TestBlockSampleMatchesAllRows(t *testing.T) {
	for _, kind := range samplePrimaries {
		for _, n := range sampleSizes {
			tb := sampleTable(t, kind, n)
			rows, _ := tb.AllRows(nil)
			if int64(len(rows)) != tb.RowCount() {
				t.Fatalf("%s n=%d: AllRows sees %d rows, RowCount %d", kind, n, len(rows), tb.RowCount())
			}
			for _, target := range []int{0, 1, 128, 20000} {
				for _, shuffle := range []bool{false, true} {
					seed := int64(n*7 + target)
					gr, wr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					got := tb.BlockSample(128, target, gr, shuffle)
					want := stats.BlockSample(rows, 128, target, wr, shuffle)
					name := fmt.Sprintf("%s n=%d target=%d shuffle=%v", kind, n, target, shuffle)
					if got.Fraction != want.Fraction || got.TotalRows != want.TotalRows ||
						(got.Rows == nil) != (want.Rows == nil) || !sameRows(got.Rows, want.Rows) {
						t.Fatalf("%s: sample differs (%d vs %d rows, fraction %v vs %v)",
							name, len(got.Rows), len(want.Rows), got.Fraction, want.Fraction)
					}
					if g, w := gr.Int63(), wr.Int63(); g != w {
						t.Fatalf("%s: rng state differs after sampling", name)
					}
					gr = rand.New(rand.NewSource(seed))
					got = tb.BlockSample(128, target, gr, shuffle, 3, 1)
					if !sameRows(got.Rows, project(want.Rows, 3, 1)) {
						t.Fatalf("%s: projected sample differs", name)
					}
				}
			}
		}
	}
}

// TestHistogramMatchesReference checks every column's cached histogram
// against the from-scratch build.
func TestHistogramMatchesReference(t *testing.T) {
	for _, kind := range samplePrimaries {
		for _, n := range sampleSizes {
			tb := sampleTable(t, kind, n)
			for c := 0; c < tb.Schema.Len(); c++ {
				if got, want := tb.Histogram(c), refHistogram(tb, c); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d col %d: histogram differs from the reference build", kind, n, c)
				}
			}
		}
	}
}

// warmHistograms builds every column's histogram.
func warmHistograms(tb *Table) {
	for c := 0; c < tb.Schema.Len(); c++ {
		tb.Histogram(c)
	}
}

// cachedCols lists the columns with a cached histogram, ascending.
func cachedCols(tb *Table) []int {
	return slices.Sorted(func(yield func(int) bool) {
		for c := range tb.CachedHistograms() {
			if !yield(c) {
				return
			}
		}
	})
}

// updateEvery applies set to every step-th row (in AllRows order) as
// one ApplyUpdates call.
func updateEvery(tb *Table, step int, set func(value.Row)) {
	rows, uids := tb.AllRows(nil)
	var ups []Update
	for i := 0; i < len(rows); i += step {
		nr := rows[i].Clone()
		set(nr)
		ups = append(ups, Update{Old: rows[i].Clone(), New: nr, UID: uids[i]})
	}
	tb.ApplyUpdates(nil, ups)
}

// TestWritesDropHistograms pins down what each write invalidates: an
// update that keeps every row in place drops only the columns whose
// value changed bit for bit; every other write drops everything. After
// each write, every histogram (kept or rebuilt) must match the
// from-scratch build.
func TestWritesDropHistograms(t *testing.T) {
	const n = 30000 // above the sample target, so the sample is positional
	all := []int{0, 1, 2, 3}
	cases := []struct {
		name  string
		kind  PrimaryKind
		write func(tb *Table)
		kept  []int
	}{
		{"btree non-key update", PrimaryBTree, func(tb *Table) {
			updateEvery(tb, 97, func(r value.Row) { r[1] = value.NewInt(999) })
		}, []int{0, 2, 3}},
		{"heap update", PrimaryHeap, func(tb *Table) {
			updateEvery(tb, 89, func(r value.Row) { r[0] = value.NewInt(r[0].Int() + n); r[3] = value.NewString("zz") })
		}, []int{1, 2}},
		{"unchanged update", PrimaryBTree, func(tb *Table) {
			updateEvery(tb, 50, func(value.Row) {})
		}, all},
		{"negative zero to positive zero", PrimaryBTree, func(tb *Table) {
			updateEvery(tb, 13*101, func(r value.Row) {
				if r[2].Kind() == value.KindFloat && r[2].Float() == 0 {
					r[2] = value.NewFloat(0)
				}
			})
		}, []int{0, 1, 3}},
		{"update to NaN", PrimaryBTree, func(tb *Table) {
			updateEvery(tb, 5000, func(r value.Row) { r[2] = value.NewFloat(math.NaN()) })
		}, []int{0, 1, 3}},
		{"key-moving update", PrimaryBTree, func(tb *Table) {
			updateEvery(tb, 1000, func(r value.Row) { r[0] = value.NewInt(-r[0].Int() - 1) })
		}, nil},
		{"columnstore-primary update", PrimaryColumnstore, func(tb *Table) {
			updateEvery(tb, 97, func(r value.Row) { r[1] = value.NewInt(999) })
		}, nil},
		{"insert", PrimaryBTree, func(tb *Table) {
			tb.Insert(nil, sampleRow(n+100, rand.New(rand.NewSource(1))))
		}, nil},
		{"delete", PrimaryBTree, func(tb *Table) {
			rows, uids := tb.AllRows(nil)
			tb.Delete(nil, []Match{{Row: rows[7].Clone(), UID: uids[7]}})
		}, nil},
		{"bulk load", PrimaryBTree, func(tb *Table) {
			tb.BulkLoad(nil, []value.Row{sampleRow(n+200, rand.New(rand.NewSource(2)))})
		}, nil},
	}
	for _, tc := range cases {
		tb := sampleTable(t, tc.kind, n)
		warmHistograms(tb)
		if got := cachedCols(tb); !slices.Equal(got, all) {
			t.Fatalf("%s: warm cache holds %v", tc.name, got)
		}
		tc.write(tb)
		if got := cachedCols(tb); !slices.Equal(got, tc.kept) {
			t.Errorf("%s: kept histograms for %v, want %v", tc.name, got, tc.kept)
		}
		for c := range all {
			got, want := tb.Histogram(c), refHistogram(tb, c)
			if tc.name == "update to NaN" && c == 2 {
				// NaN != NaN, so DeepEqual cannot compare this column.
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: col %d histogram differs from the reference build", tc.name, c)
			}
		}
	}
}
