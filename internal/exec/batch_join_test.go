package exec

import (
	"testing"

	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/storage"
	"hybriddb/internal/table"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/vec"
)

// compositeJoin assembles a composite-key batch hash join by hand:
// build slots 0 (a) and 1 (b), probe slots 2 (x) and 3 (y), joined on
// a = x with b = y in the residual. The build store holds one row.
func compositeJoin(t *testing.T, a, b int64) *batchHashJoin {
	t.Helper()
	sch := value.NewSchema(
		value.Column{Name: "x", Kind: value.KindInt},
		value.Column{Name: "y", Kind: value.KindInt},
	)
	probeTbl := table.New(storage.NewStore(0), "p", sch, nil)
	ref := func(slot int) *sql.ColRef { return &sql.ColRef{Slot: slot, Kind: value.KindInt} }
	j := &plan.Join{
		Strategy: plan.JoinHash,
		Inner:    &plan.Scan{Table: probeTbl, SlotBase: 2},
		LeftSlot: 0, RightSlot: 2,
		Residual: []sql.Expr{&sql.BinOp{Op: "=", L: ref(3), R: ref(1)}},
	}
	ctx := &Context{Tr: vclock.NewTracker(vclock.DefaultModel(vclock.DRAM)), TotalSlots: 4, DOP: 1}
	c := &batchHashJoin{ctx: ctx, j: j, storeSlots: []int{0, 1}}
	kinds := []value.Kind{value.KindInt, value.KindInt}
	c.keyCols, c.probeExtra, c.rest = foldKeys(j, c.storeSlots, kinds)
	if len(c.keyCols) != 2 || c.keyCols[0] != 0 || c.keyCols[1] != 1 ||
		len(c.probeExtra) != 1 || c.probeExtra[0] != 3 || len(c.rest) != 0 {
		t.Fatalf("foldKeys: keyCols=%v probeExtra=%v rest=%d, want [0 1] [3] 0",
			c.keyCols, c.probeExtra, len(c.rest))
	}
	c.keyKinds = kinds
	pt := newJoinPart(kinds, true)
	pt.store[0].Append(value.NewInt(a))
	pt.store[1].Append(value.NewInt(b))
	pt.n = 1
	c.parts = []*joinPart{pt}
	return c
}

// probeRows probes (x, y) once as a columnar batch and once as a
// composite row, returning the joined row count of each.
func probeRows(c *batchHashJoin, x, y int64) (columnar, rows int) {
	b := vec.NewBatch([]value.Kind{value.KindInt, value.KindInt})
	b.AppendRow(value.Row{value.NewInt(x), value.NewInt(y)})
	if out := c.probeOne(c.ctx.Tr, &SlotBatch{B: b, Slots: []int{2, 3}}, c.newProbeState(false)); out != nil {
		columnar = out.Len()
	}
	row := value.Row{value.Null, value.Null, value.NewInt(x), value.NewInt(y)}
	if out := c.probeOne(c.ctx.Tr, &SlotBatch{Rows: []value.Row{row}}, c.newProbeState(false)); out != nil {
		rows = out.Len()
	}
	return columnar, rows
}

// TestCompositeKeyCollisionRejected drives the typed verify behind a
// mixed hash key, which no engine query can hit on demand: a candidate
// found under a probe's mixed key must still match every key column.
func TestCompositeKeyCollisionRejected(t *testing.T) {
	// The build row (1, 2) filed under its own key joins (1, 2) only.
	c := compositeJoin(t, 1, 2)
	c.parts[0].itable[mixKey(1, 2)] = []int32{0}
	if col, row := probeRows(c, 1, 2); col != 1 || row != 1 {
		t.Fatalf("probe (1,2) of its own build row: %d columnar, %d row matches, want 1 and 1", col, row)
	}

	// Planted under another tuple's mixed key, the build row is a
	// candidate for that tuple's probe and must be rejected.
	c = compositeJoin(t, 1, 2)
	c.parts[0].itable[mixKey(3, 4)] = []int32{0}
	if col, row := probeRows(c, 3, 4); col != 0 || row != 0 {
		t.Errorf("probe (3,4) against planted (1,2): %d columnar, %d row matches, want 0", col, row)
	}

	// A genuine collision of the mix: (1, 0) and (0, m) share a key
	// when m is the mixing multiplier.
	m := mixKey(1, 0)
	if mixKey(0, m) != m {
		t.Fatalf("mixKey(0, %d) = %d, want the collision %d", m, mixKey(0, m), m)
	}
	c = compositeJoin(t, 1, 0)
	c.parts[0].itable[m] = []int32{0}
	if col, row := probeRows(c, 0, m); col != 0 || row != 0 {
		t.Errorf("probe (0,%d) colliding with build (1,0): %d columnar, %d row matches, want 0", m, col, row)
	}
	if col, row := probeRows(c, 1, 0); col != 1 || row != 1 {
		t.Errorf("probe (1,0) of its own build row: %d columnar, %d row matches, want 1 and 1", col, row)
	}
}

// keyTable is a heap table (k, d, x, v) of n rows with a secondary
// columnstore of 256-row rowgroups; every column holds some NULLs.
func keyTable(tb testing.TB, n, salt int) *table.Table {
	tb.Helper()
	sch := value.NewSchema(
		value.Column{Name: "k", Kind: value.KindInt},
		value.Column{Name: "d", Kind: value.KindDate},
		value.Column{Name: "x", Kind: value.KindInt},
		value.Column{Name: "v", Kind: value.KindInt},
	)
	t := table.New(storage.NewStore(0), "kt", sch, nil)
	t.SetRowGroupSize(256)
	orNull := func(i, every int, v value.Value) value.Value {
		if i%every == 0 {
			return value.Null
		}
		return v
	}
	rows := make([]value.Row, n)
	for i := range rows {
		h := int64(uint32(i*2654435761 + salt))
		rows[i] = value.Row{
			orNull(i, 17, value.NewInt(h%40)),
			orNull(i+3, 13, value.NewDate(h>>8%4)),
			orNull(i+5, 11, value.NewInt(h>>12%3)),
			orNull(i+7, 19, value.NewInt(h>>16%3)),
		}
	}
	t.BulkLoad(nil, rows)
	t.AddSecondaryCSI(nil, "csi")
	return t
}

// TestCompositeKeyResidualShapes runs hand-built hash joins whose
// residuals the optimizer never emits — equalities within one side and
// a non-equality — through both spines: foldKeys must hash only the
// cross-side int equalities, and the rest must still filter.
func TestCompositeKeyResidualShapes(t *testing.T) {
	SetSchedulableCPUs(8)
	defer SetSchedulableCPUs(0)
	buildT, probeT := keyTable(t, 300, 3), keyTable(t, 3000, 5)
	ref := func(slot int, k value.Kind) *sql.ColRef { return &sql.ColRef{Slot: slot, Kind: k} }
	eq := func(l, r *sql.ColRef) sql.Expr { return &sql.BinOp{Op: "=", L: l, R: r} }
	// Build slots 0..3 (k, d, x, v), probe slots 4..7.
	bd, bx, bv := ref(1, value.KindDate), ref(2, value.KindInt), ref(3, value.KindInt)
	pd, px, pv := ref(5, value.KindDate), ref(6, value.KindInt), ref(7, value.KindInt)
	cases := []struct {
		residual  []sql.Expr
		folded    int
		probeBase int
	}{
		{[]sql.Expr{eq(bd, pd), eq(px, bx)}, 2, 4},
		{[]sql.Expr{eq(bd, pd), eq(bx, bv)}, 1, 4},                        // build-side equality
		{[]sql.Expr{eq(px, pv), eq(bx, px)}, 1, 4},                        // probe-side equality
		{[]sql.Expr{eq(bd, pd), &sql.BinOp{Op: "<", L: bv, R: pv}}, 1, 4}, // non-equality
		{[]sql.Expr{eq(bx, pd), eq(px, bd)}, 0, 4},                        // BIGINT = DATE
		// The probe (k, d, x, v at slots 2..5) overlays build slots 2
		// and 3, so slot 2 = slot 4 compares two probe columns.
		{[]sql.Expr{eq(bx, ref(4, value.KindInt))}, 0, 2},
	}
	for ci, tc := range cases {
		mkPlan := func() *plan.Root {
			bs, ps := scanNode(buildT, plan.AccessCSIScan), scanNode(probeT, plan.AccessCSIScan)
			ps.SlotBase = tc.probeBase
			bs.Parallel, ps.Parallel = true, true
			return &plan.Root{DOP: 4, Input: &plan.Join{
				Strategy: plan.JoinHash, Outer: bs, Inner: ps,
				LeftSlot: 0, RightSlot: tc.probeBase, Residual: tc.residual, Parallel: true,
			}}
		}
		j := mkPlan().Input.(*plan.Join)
		keyCols, _, rest := foldKeys(j, []int{0, 1, 2, 3},
			[]value.Kind{value.KindInt, value.KindDate, value.KindInt, value.KindInt})
		if got := max(0, len(keyCols)-1); got != tc.folded || len(rest) != len(tc.residual)-tc.folded {
			t.Errorf("case %d: folded %d (rest %d), want %d", ci, got, len(rest), tc.folded)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			tn := &metrics.TraceNode{}
			run := func(rowMode bool, tn *metrics.TraceNode) *Result {
				res, err := Execute(vclock.NewTracker(vclock.DefaultModel(vclock.DRAM)), mkPlan(), 8,
					RunOptions{Workers: workers, RowMode: rowMode, Trace: tn})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			rowRes, batchRes := run(true, nil), run(false, tn)
			hj := tn.Children[0]
			if v, _ := hj.Attr("hash_keys"); v != int64(tc.folded+1) {
				t.Errorf("case %d (workers=%d): hash_keys=%d, want %d", ci, workers, v, tc.folded+1)
			}
			if v, _ := hj.Attr("build_partitions"); workers > 1 && v != int64(workers) {
				t.Errorf("case %d (workers=%d): build_partitions=%d, want a partitioned build", ci, workers, v)
			}
			if rowRes.Metrics != batchRes.Metrics {
				t.Errorf("case %d (workers=%d): Metrics diverge\n row:   %v\n batch: %v",
					ci, workers, rowRes.Metrics, batchRes.Metrics)
			}
			if len(rowRes.Rows) == 0 || len(rowRes.Rows) != len(batchRes.Rows) {
				t.Fatalf("case %d (workers=%d): %d row-spine rows, %d batch rows",
					ci, workers, len(rowRes.Rows), len(batchRes.Rows))
			}
			for i := range rowRes.Rows {
				for c := range rowRes.Rows[i] {
					if !value.Identical(rowRes.Rows[i][c], batchRes.Rows[i][c]) {
						t.Fatalf("case %d (workers=%d): row %d slot %d: row spine %v, batch %v",
							ci, workers, i, c, rowRes.Rows[i][c], batchRes.Rows[i][c])
					}
				}
			}
		}
	}
}
