// Composite-key hash join differential test: joins on one, two and
// three equalities over BIGINT, DATE and BOOL columns, with NULLs in
// every key column on both sides, run through the batch spine (which
// hashes every int-backed equality) and the row spine (which hashes one
// and evaluates the rest per match). Rows in order and Metrics must be
// identical at every worker count, and EXPLAIN ANALYZE's hash_keys must
// show which equalities were hashed.
package hybriddb

import (
	"fmt"
	"strings"
	"testing"

	"hybriddb/internal/exec"
	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
)

// keyJoinDB holds four tables with the same columns: b and c (small,
// build sides) and p (larger) carry columnstores; h (no columnstore) is
// probed row by row through a heap scan.
func keyJoinDB(t *testing.T) *DB {
	t.Helper()
	db := Open(WithRowGroupSize(256))
	for _, name := range []string{"b", "c", "p", "h"} {
		if _, err := db.Exec("CREATE TABLE " + name + ` (id BIGINT, k BIGINT, d DATE,
			f BOOLEAN, x BIGINT, dbl DOUBLE, s VARCHAR, v BIGINT)`); err != nil {
			t.Fatal(err)
		}
	}
	// NULLs fall on different rows in each key column; k has the most
	// distinct values, so the optimizer hashes it and leaves the other
	// equalities in the join's residual.
	nullOr := func(i, every int, lit string) string {
		if i%every == 0 {
			return "NULL"
		}
		return lit
	}
	fill := func(name string, n, salt int) {
		var vals []string
		for i := 0; i < n; i++ {
			// Independent bit fields of a multiplicative hash, so no key
			// column is a function of another.
			h := int(uint32(i*2654435761 + salt))
			vals = append(vals, fmt.Sprintf("(%d, %s, %s, %s, %s, %s, %s, %d)", i,
				nullOr(i, 17, fmt.Sprint(h%150)),
				nullOr(i+3, 13, fmt.Sprintf("'2020-01-%02d'", 1+h>>8%4)),
				nullOr(i+5, 11, [2]string{"FALSE", "TRUE"}[h>>12%2]),
				nullOr(i+7, 19, fmt.Sprint(h>>16%3)),
				nullOr(i+1, 23, fmt.Sprintf("%d.0", h>>20%3)),
				nullOr(i+2, 29, fmt.Sprintf("'s%d'", h>>24%3)),
				h>>4%97))
		}
		for lo := 0; lo < n; lo += 500 {
			hi := min(lo+500, n)
			if _, err := db.Exec("INSERT INTO " + name + " VALUES " + strings.Join(vals[lo:hi], ", ")); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill("b", 400, 3)
	fill("p", 4000, 5)
	fill("h", 2000, 1)
	// The binder keeps a non-integral DOUBLE inserted into a BIGINT
	// column, so h.x also holds values of another kind than its own.
	if _, err := db.Exec(`INSERT INTO h VALUES (2000, 7, '2020-01-02', TRUE, 1.5, 1.0, 's1', 3),
		(2001, 9, '2020-01-03', FALSE, -0.5, 2.0, 's2', 4)`); err != nil {
		t.Fatal(err)
	}
	fill("c", 300, 9)
	for _, name := range []string{"b", "c", "p"} {
		if _, err := db.Exec("CREATE NONCLUSTERED COLUMNSTORE INDEX csi_" + name + " ON " + name); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// hashJoinNode returns the first HashJoin node of a trace tree.
func hashJoinNode(n *metrics.TraceNode) *metrics.TraceNode {
	if n == nil {
		return nil
	}
	if n.Name == "HashJoin" {
		return n
	}
	for _, c := range n.Children {
		if hj := hashJoinNode(c); hj != nil {
			return hj
		}
	}
	return nil
}

func TestCompositeKeyJoinEquivalence(t *testing.T) {
	exec.SetSchedulableCPUs(8)
	defer exec.SetSchedulableCPUs(0)
	db := keyJoinDB(t)

	const sel = "SELECT b.id, p.id, b.v, p.v FROM b, p WHERE b.k = p.k"
	cases := []struct {
		sql      string
		hashKeys int64
	}{
		{sel, 1},
		{sel + " AND b.d = p.d", 2},
		{sel + " AND b.d = p.d AND b.f = p.f", 3},
		{sel + " AND p.f = b.f AND b.x = p.x AND p.d = b.d", 4},
		// BIGINT = DOUBLE and VARCHAR equalities stay residual.
		{sel + " AND b.d = p.d AND b.x = p.dbl", 2},
		{sel + " AND b.f = p.f AND b.s = p.s", 2},
		// A non-equality conjunct still filters.
		{sel + " AND b.d = p.d AND b.f = p.f AND b.v < p.v", 3},
		// Row-layout probes: h has no columnstore.
		{"SELECT b.id, h.id FROM b, h WHERE b.k = h.k AND b.d = h.d AND b.f = h.f AND b.x = h.x AND b.v = h.dbl", 4},
		{"SELECT b.id, h.id FROM b, h WHERE b.f = h.f AND b.v < 3 AND h.v < 10", 1},
		// Three tables: the top join builds c and probes b ⋈ p, hashing
		// one equality with each of b and p.
		{"SELECT b.id, p.id, c.id FROM b, p, c WHERE b.k = p.k AND c.x = p.x AND c.d = b.d AND c.f = p.f AND b.v < 10", 3},
	}
	for ci, tc := range cases {
		for _, par := range []int{1, 2, 4, 8} {
			rowRes, err := db.Exec(tc.sql, ExecOptions{Parallelism: par, RowMode: true})
			if err != nil {
				t.Fatalf("case %d row spine: %v", ci, err)
			}
			batchRes, err := db.Exec(tc.sql, ExecOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("case %d batch spine: %v", ci, err)
			}
			if batchRes.Metrics != rowRes.Metrics {
				t.Errorf("case %d (workers=%d): Metrics diverge\n row:   %v\n batch: %v",
					ci, par, rowRes.Metrics, batchRes.Metrics)
			}
			if len(batchRes.Rows) != len(rowRes.Rows) {
				t.Fatalf("case %d (workers=%d): %d batch rows, %d row rows",
					ci, par, len(batchRes.Rows), len(rowRes.Rows))
			}
			for i := range rowRes.Rows {
				for j := range rowRes.Rows[i] {
					if !value.Identical(rowRes.Rows[i][j], batchRes.Rows[i][j]) {
						t.Fatalf("case %d (workers=%d): row %d col %d diverges: row spine %v, batch spine %v",
							ci, par, i, j, rowRes.Rows[i][j], batchRes.Rows[i][j])
					}
				}
			}
			if par == 1 && len(rowRes.Rows) == 0 {
				t.Errorf("case %d joins no rows; the case checks nothing", ci)
			}
		}
		res, err := db.Exec("EXPLAIN ANALYZE " + tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		hj := hashJoinNode(res.Trace)
		if hj == nil {
			t.Fatalf("case %d: no HashJoin in\n%s", ci, res.Trace)
		}
		if v, _ := hj.Attr("hash_keys"); v != tc.hashKeys {
			t.Errorf("case %d: hash_keys=%d, want %d\n%s", ci, v, tc.hashKeys, res.Trace)
		}
	}
}
