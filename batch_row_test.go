// Batch-vs-row spine differential test: every CH analytic query runs
// through the default batch spine and the legacy row spine, at serial
// and parallel worker counts. The two spines must return identical rows
// in identical order AND a bit-identical virtual-clock Metrics snapshot
// — the batch executor is a real-CPU optimization, never a semantic or
// simulated-cost change.
package hybriddb

import (
	"testing"

	"hybriddb/internal/exec"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/workload"
)

func TestBatchRowSpineEquivalence(t *testing.T) {
	// Force the worker pools to really run even on single-core CI
	// machines (the scheduler otherwise degrades every operator to the
	// inline serial path).
	exec.SetSchedulableCPUs(8)
	defer exec.SetSchedulableCPUs(0)
	cfg := workload.DefaultCH()
	cfg.Warehouses = 2
	cfg.CustomersPerD = 60
	cfg.OrdersPerD = 80
	cfg.ItemCount = 400
	cfg.RowGroupSize = 1024
	db := Wrap(workload.BuildCH(vclock.DefaultModel(vclock.DRAM), cfg))
	// The paper's hybrid design: secondary columnstores on the analytic
	// tables, so the queries cross CSI scans, batch hash joins and
	// aggregation, sorts, and the row fringes (B+ tree paths remain for
	// the untouched tables).
	for _, tbl := range []string{"orderline", "oorder", "stock", "ch_item", "ch_customer", "ch_supplier"} {
		if _, err := db.Exec("CREATE NONCLUSTERED COLUMNSTORE INDEX csi_" + tbl + " ON " + tbl); err != nil {
			t.Fatal(err)
		}
	}

	for qi, q := range workload.CHQueries() {
		for _, par := range []int{1, 2, 4, 8} {
			rowRes, err := db.Exec(q, ExecOptions{Parallelism: par, RowMode: true})
			if err != nil {
				t.Fatalf("Q%02d row spine: %v", qi+1, err)
			}
			batchRes, err := db.Exec(q, ExecOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("Q%02d batch spine: %v", qi+1, err)
			}
			if batchRes.Metrics != rowRes.Metrics {
				t.Errorf("Q%02d (workers=%d): Metrics diverge\n row:   %v\n batch: %v",
					qi+1, par, rowRes.Metrics, batchRes.Metrics)
			}
			if len(batchRes.Rows) != len(rowRes.Rows) {
				t.Fatalf("Q%02d (workers=%d): %d batch rows, %d row rows",
					qi+1, par, len(batchRes.Rows), len(rowRes.Rows))
			}
			for i := range rowRes.Rows {
				for j := range rowRes.Rows[i] {
					if value.Compare(rowRes.Rows[i][j], batchRes.Rows[i][j]) != 0 {
						t.Fatalf("Q%02d (workers=%d): row %d col %d diverges: row spine %v, batch spine %v",
							qi+1, par, i, j, rowRes.Rows[i][j], batchRes.Rows[i][j])
					}
				}
			}
		}
	}

	// The batch spine must actually engage: EXPLAIN ANALYZE reports the
	// count of batch-native operators on the top plan node.
	res, err := db.Exec("EXPLAIN ANALYZE " + workload.CHQueries()[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Children) == 0 {
		t.Fatalf("no trace tree")
	}
	if v, ok := res.Trace.Children[0].Attr("batch_operators"); !ok || v < 2 {
		t.Errorf("batch_operators attr = %d (present=%v), want >= 2", v, ok)
	}

	// Q03 and Q18 join oorder and orderline on o_id, o_d_id and o_w_id:
	// the batch hash join must hash all three, not fan out on one.
	for _, qi := range []int{3, 18} {
		res, err := db.Exec("EXPLAIN ANALYZE " + workload.CHQueries()[qi-1])
		if err != nil {
			t.Fatal(err)
		}
		if hj := hashJoinNode(res.Trace); hj == nil {
			t.Errorf("Q%02d: no HashJoin in\n%s", qi, res.Trace)
		} else if v, _ := hj.Attr("hash_keys"); v != 3 {
			t.Errorf("Q%02d: hash_keys=%d, want 3\n%s", qi, v, res.Trace)
		}
	}
}
