package engine

import (
	"fmt"
	"testing"

	"hybriddb/internal/metrics"
	"hybriddb/internal/value"
)

// TestNonKeyUpdatesKeepHistograms checks that point UPDATEs which leave
// the cluster key alone build no histograms once the plan's columns are
// cached: the TPC-C NewOrder stock update, against a clustered B+ tree
// with a nonclustered columnstore beside it.
func TestNonKeyUpdatesKeepHistograms(t *testing.T) {
	db := newDB(t)
	mustExec(t, db, "CREATE TABLE stock (s_w_id BIGINT, s_i_id BIGINT, s_quantity BIGINT, s_ytd DOUBLE, s_order_cnt BIGINT, PRIMARY KEY (s_w_id, s_i_id))")
	const items = 15000
	rows := make([]value.Row, 0, 2*items)
	for w := 0; w < 2; w++ {
		for i := 0; i < items; i++ {
			rows = append(rows, value.Row{
				value.NewInt(int64(w)), value.NewInt(int64(i)),
				value.NewInt(int64(10 + i%91)), value.NewFloat(0), value.NewInt(0),
			})
		}
	}
	db.Table("stock").BulkLoad(nil, rows)
	mustExec(t, db, "CREATE NONCLUSTERED COLUMNSTORE INDEX csi_stock ON stock")
	update := func(i int) {
		mustExec(t, db, fmt.Sprintf("UPDATE stock SET s_quantity += -1, s_order_cnt += 1 WHERE s_w_id = %d AND s_i_id = %d", i%2, i*37%items))
	}
	builds := func() float64 { return metrics.Default().Value("hybriddb_table_histogram_builds_total") }
	start := builds()
	update(0) // warm-up: builds the histograms the plan consults
	before := builds()
	if before == start {
		t.Fatal("warm-up update built no histograms; the plan no longer consults statistics")
	}
	for i := 1; i <= 100; i++ {
		update(i)
	}
	if d := builds() - before; d != 0 {
		t.Fatalf("100 non-key stock updates built %v histograms, want 0", d)
	}
}
