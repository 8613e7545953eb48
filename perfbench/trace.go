package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybriddb"
	"hybriddb/internal/colstore"
	"hybriddb/internal/engine"
	"hybriddb/internal/exec"
	"hybriddb/internal/optimizer"
	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/table"
	"hybriddb/internal/vclock"
)

// span is one timed call at a layer boundary. Spans of one statement
// share Stmt, the id of the statement's own span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Stmt   int64  `json:"stmt,omitempty"`
	Conn   string `json:"conn,omitempty"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

func (r *recorder) add(s span, start, end time.Time) {
	if r == nil {
		return
	}
	s.Start, s.End = start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write stores the spans as JSON lines under .bench_build/spans.
func (r *recorder) write(name string) (string, error) {
	path := filepath.Join(".bench_build", "spans", name+".jsonl")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedEngine runs each statement through the engine's layers one
// public call at a time, as Database.Exec does internally, with a span
// around each call: sql.ParseOne, Binder.Bind*, optimizer.Optimize or
// ChooseDMLScan, exec.Execute or exec.BuildScan plus the UIDCursor
// drain, and Table.Insert, ApplyUpdates or Delete. It serves a single
// client with no tuple mover, so it takes no statement lock. Each
// SELECT then runs through Exec, whose result must match, to time the
// engine's own overhead (see overhead).
type tracedEngine struct {
	db   *engine.Database
	rec  *recorder
	opts optimizer.Options
	excl time.Duration

	selects, csiSelects int
	stages              time.Duration // layer-call time of the current statement
	overheads           []float64     // per SELECT: Exec wall minus its layer calls, ns
	overheadFracs       []float64     // per SELECT: that overhead over the Exec wall
}

func newTracedEngine(db *hybriddb.DB, rec *recorder) *tracedEngine {
	in := db.Internal()
	return &tracedEngine{db: in, rec: rec, opts: optimizer.Options{Model: in.Model()}}
}

func (e *tracedEngine) excluded() time.Duration { return e.excl }

func (e *tracedEngine) stmt(q string, parent int64) (stmtResult, error) {
	id := e.rec.id()
	start := time.Now()
	res, err := e.decomposed(q, id)
	end := time.Now()
	e.rec.add(span{ID: id, Parent: parent, Stmt: id, Name: "stmt", Kind: stmtKind(q)}, start, end)
	if err != nil || stmtKind(q) != "SELECT" {
		return res, err
	}
	err = e.overhead(q, id, res)
	e.excl += time.Since(end)
	return res, err
}

// overhead times the SELECT through Exec, then once more through the
// layers, untraced, and records the difference. The first layered run
// may pay for statistics the engine rebuilds lazily after writes, so
// the comparison is against the second.
func (e *tracedEngine) overhead(q string, id int64, layered stmtResult) error {
	start := time.Now()
	twin, err := e.db.Exec(q)
	wall := time.Since(start)
	e.rec.add(span{ID: e.rec.id(), Parent: id, Stmt: id, Name: "engine.exec"}, start, start.Add(wall))
	if err != nil {
		return err
	}
	if checksum(twin.Rows) != checksum(layered.rows) {
		return fmt.Errorf("layered SELECT and Exec disagree on %q", q)
	}
	rec := e.rec
	e.rec, e.stages = nil, 0
	_, err = e.decomposed(q, 0)
	e.rec = rec
	e.overheads = append(e.overheads, float64(wall-e.stages))
	e.overheadFracs = append(e.overheadFracs, float64(wall-e.stages)/float64(wall))
	return err
}

// timed runs f inside a span named name under statement id.
func (e *tracedEngine) timed(name string, id int64, f func()) {
	start := time.Now()
	f()
	end := time.Now()
	e.stages += end.Sub(start)
	e.rec.add(span{ID: e.rec.id(), Parent: id, Stmt: id, Name: name}, start, end)
}

func (e *tracedEngine) decomposed(q string, id int64) (stmtResult, error) {
	var st sql.Statement
	var err error
	e.timed("sql.parse", id, func() { st, err = sql.ParseOne(q) })
	if err != nil {
		return stmtResult{}, err
	}
	b := sql.NewBinder(e.db)
	tr := vclock.NewTracker(e.db.Model())
	switch s := st.(type) {
	case *sql.SelectStmt:
		var bound *sql.BoundSelect
		if e.timed("sql.bind", id, func() { bound, err = b.BindSelect(s) }); err != nil {
			return stmtResult{}, err
		}
		var root *plan.Root
		if e.timed("optimizer.plan", id, func() { root, err = optimizer.Optimize(e.db, bound, e.opts) }); err != nil {
			return stmtResult{}, err
		}
		if e.rec != nil {
			e.selects++
			for _, k := range plan.LeafAccess(root.Input) {
				if k == plan.AccessCSIScan {
					e.csiSelects++
					break
				}
			}
		}
		var out *exec.Result
		e.timed("exec.select", id, func() {
			out, err = exec.Execute(tr, root, bound.TotalSlots, exec.RunOptions{Workers: autoWorkers(root)})
		})
		if err != nil {
			return stmtResult{}, err
		}
		return stmtResult{rows: out.Rows}, nil

	case *sql.InsertStmt:
		var bound *sql.BoundInsert
		if e.timed("sql.bind", id, func() { bound, err = b.BindInsert(s) }); err != nil {
			return stmtResult{}, err
		}
		t := e.db.Table(bound.Table)
		e.timed("table.write", id, func() {
			for _, r := range bound.Rows {
				t.Insert(tr, r)
			}
		})
		return stmtResult{affected: int64(len(bound.Rows))}, nil

	case *sql.UpdateStmt:
		var bound *sql.BoundUpdate
		if e.timed("sql.bind", id, func() { bound, err = b.BindUpdate(s) }); err != nil {
			return stmtResult{}, err
		}
		t := e.db.Table(bound.Table)
		matches, err := e.locate(id, tr, t, bound.Conjuncts, bound.Top)
		if err != nil {
			return stmtResult{}, err
		}
		ups := make([]table.Update, len(matches))
		for i, m := range matches {
			newRow := m.Row.Clone()
			for si, col := range bound.SetCols {
				newRow[col] = sql.Eval(bound.SetExprs[si], m.Row)
			}
			ups[i] = table.Update{Old: m.Row, New: newRow, UID: m.UID}
		}
		var n int64
		e.timed("table.write", id, func() { n = t.ApplyUpdates(tr, ups) })
		return stmtResult{affected: n}, nil

	case *sql.DeleteStmt:
		var bound *sql.BoundDelete
		if e.timed("sql.bind", id, func() { bound, err = b.BindDelete(s) }); err != nil {
			return stmtResult{}, err
		}
		t := e.db.Table(bound.Table)
		matches, err := e.locate(id, tr, t, bound.Conjuncts, bound.Top)
		if err != nil {
			return stmtResult{}, err
		}
		var n int64
		e.timed("table.write", id, func() { n = t.Delete(tr, matches) })
		return stmtResult{affected: n}, nil
	}
	return stmtResult{}, fmt.Errorf("perfbench: no layered path for %T", st)
}

// locate finds a DML statement's target rows the way the engine does:
// ChooseDMLScan picks the access path, BuildScan opens it, and the
// UIDCursor is drained up to TOP.
func (e *tracedEngine) locate(id int64, tr *vclock.Tracker, t *table.Table, conj []sql.Expr, top int64) ([]table.Match, error) {
	var scan *plan.Scan
	e.timed("optimizer.plan", id, func() { scan = optimizer.ChooseDMLScan(t, conj, e.opts) })
	var matches []table.Match
	var err error
	e.timed("exec.dml_locate", id, func() {
		var cur exec.Cursor
		cur, err = exec.BuildScan(&exec.Context{Tr: tr, TotalSlots: t.Schema.Len(), DOP: 1}, scan)
		if err != nil {
			return
		}
		uc, ok := cur.(exec.UIDCursor)
		if !ok {
			err = fmt.Errorf("perfbench: scan cursor lacks UIDs")
			return
		}
		for {
			row, more := uc.Next()
			if !more {
				break
			}
			matches = append(matches, table.Match{Row: row[:t.Schema.Len()].Clone(), UID: uc.UID()})
			if top > 0 && int64(len(matches)) >= top {
				break
			}
		}
	})
	return matches, err
}

// autoWorkers is the engine's automatic worker budget on an unbounded
// pool: GOMAXPROCS, clamped to the plan's largest morsel count.
func autoWorkers(root *plan.Root) int {
	n := runtime.GOMAXPROCS(0)
	if m := planMorsels(root); n > m {
		n = m
	}
	return max(n, 1)
}

// planMorsels is the largest morsel count of any columnstore scan in
// the plan: one per rowgroup plus one for a non-empty delta store.
func planMorsels(n plan.Node) int {
	most := 1
	plan.Walk(n, func(node plan.Node) {
		s, ok := node.(*plan.Scan)
		if !ok || s.Access != plan.AccessCSIScan {
			return
		}
		var csi *colstore.Index
		if s.Index != nil && s.Index.CSI != nil {
			csi = s.Index.CSI
		} else {
			csi = s.Table.CCI()
		}
		if csi == nil {
			return
		}
		m := csi.Groups()
		if csi.DeltaRows() > 0 {
			m++
		}
		most = max(most, m)
	})
	return most
}

// stageNames are the layer calls tracedEngine times, with the metric
// each reports its p50 under and that metric's unit.
var stageNames = []struct{ span, metric, unit string }{
	{"sql.parse", "sql.parse_us", "us"},
	{"sql.bind", "sql.bind_us", "us"},
	{"optimizer.plan", "optimizer.plan_us", "us"},
	{"exec.dml_locate", "exec.dml_locate_us", "us"},
	{"table.write", "table.write_us", "us"},
	{"exec.select", "exec.select_ms", "ms"},
}

// perLayer is the per-layer metric catalog. Every traced run reports
// each one, as 0 where the workload does not exercise the layer or, on
// ch_htap, where client-side spans cannot see it.
var perLayer = []struct{ name, unit string }{
	{"sql.parse_us", "us"}, {"sql.parse.share", "frac"},
	{"sql.bind_us", "us"}, {"sql.bind.share", "frac"},
	{"optimizer.plan_us", "us"}, {"optimizer.plan.share", "frac"},
	{"exec.dml_locate_us", "us"}, {"exec.dml_locate.share", "frac"},
	{"table.write_us", "us"}, {"table.write.share", "frac"},
	{"exec.select_ms", "ms"}, {"exec.select.share", "frac"},
	{"engine.overhead_us", "us"}, {"engine.overhead.share", "frac"},
	{"btree.splits_per_txn", "count"},
	{"exec.morsels_per_select", "count"},
	{"colstore.rowgroups_scanned_per_select", "count"},
	{"colstore.prune_frac", "frac"},
	{"colstore.kernel_fallback_frac", "frac"},
	{"optimizer.csi_plan_frac", "frac"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_mb_per_stmt", "MB"},
	{"runtime.heap_peak_mb", "MB"},
	{"session.lock_wait_frac", "frac"},
	{"session.lock_wait_ms_p50", "ms"},
	{"wire.encode_us", "us"}, {"wire.encode.share", "frac"},
	{"wire.decode_us", "us"}, {"wire.decode.share", "frac"},
	{"wire.frames_per_stmt", "count"},
	{"mover.rows_moved", "count"},
	{"mover.abort_frac", "frac"},
	{"colstore.delta_rows_end", "count"},
	{"colstore.scan_tax_ms_end", "ms"},
	{"trace.overhead.txn_per_s", "1/s"},
	{"trace.overhead.txn_ms_p50", "ms"},
	{"trace.overhead.txn_ms_p95", "ms"},
	{"trace.overhead.query_ms_geomean", "ms"},
	{"trace.overhead.queries_per_s", "1/s"},
}

func zeroLayers(rep *report) {
	for _, l := range perLayer {
		rep.set(l.name, 0, l.unit)
	}
}

func durs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// stageMetrics sets each layer call's p50 and its share of the
// client-observed statement wall, and the engine overhead: the wall of
// Exec on a SELECT minus the parse, bind, plan and execute calls of a
// layered run of the same statement. The overhead's share is the
// median per statement, because the run-to-run jitter of one long
// query outweighs the summed overhead of all the others.
func stageMetrics(rep *report, spans []span, e *tracedEngine) {
	stmtWall := sum(durs(spans, "stmt"))
	for _, st := range stageNames {
		d := durs(spans, st.span)
		scale := float64(time.Microsecond)
		if st.unit == "ms" {
			scale = float64(time.Millisecond)
		}
		rep.set(st.metric, quantile(d, 0.5)/scale, st.unit)
		rep.set(st.span+".share", frac(sum(d), stmtWall), "frac")
	}
	rep.set("engine.overhead_us", quantile(e.overheads, 0.5)/float64(time.Microsecond), "us")
	rep.set("engine.overhead.share", median(e.overheadFracs), "frac")
	rep.set("optimizer.csi_plan_frac", frac(float64(e.csiSelects), float64(e.selects)), "frac")
}

// counterMetrics sets the per-layer counts taken from before/after
// deltas of the engine's metrics registry and the Go runtime over an
// untraced phase, and the phase's peak live heap as sampled at
// statement boundaries. That peak depends on whether a collection
// happened to run mid-statement, so it varies more than heap_mb.
func counterMetrics(rep *report, before, after counters, txns, selects int, heapPeak uint64) {
	d := func(name string) float64 { return after.delta(before, name) }
	stmts := d("hybriddb_statements_total")
	scanned, pruned := d("hybriddb_rowgroups_scanned_total"), d("hybriddb_rowgroups_pruned_total")
	kernel, fallback := d("hybriddb_colstore_kernel_batches_total"), d("hybriddb_colstore_kernel_fallback_batches_total")
	busy := (after.totalCPU - before.totalCPU) - (after.idleCPU - before.idleCPU)
	rep.set("btree.splits_per_txn", frac(d("hybriddb_btree_splits_total"), float64(txns)), "count")
	rep.set("exec.morsels_per_select", frac(d("hybriddb_exec_morsels_dispatched_total"), float64(selects)), "count")
	rep.set("colstore.rowgroups_scanned_per_select", frac(scanned, float64(selects)), "count")
	rep.set("colstore.prune_frac", frac(pruned, scanned+pruned), "frac")
	rep.set("colstore.kernel_fallback_frac", frac(fallback, kernel+fallback), "frac")
	rep.set("runtime.gc_cpu_frac", frac(after.gcCPU-before.gcCPU, busy), "frac")
	rep.set("runtime.alloc_mb_per_stmt", frac((after.allocBytes-before.allocBytes)/(1<<20), stmts), "MB")
	rep.set("runtime.heap_peak_mb", float64(heapPeak)/(1<<20), "MB")
	rep.set("wire.frames_per_stmt", frac(d("wire_frames_total"), stmts), "count")
	rep.set("mover.rows_moved", d("hybriddb_tuplemover_rows_moved_total"), "count")
	rep.set("mover.abort_frac", frac(d("hybriddb_tuplemover_aborts_total"), d("hybriddb_tuplemover_steps_total")), "frac")
}

// debtMetrics sets the columnstore write backlog left at the end of a
// phase.
func debtMetrics(rep *report, debts []hybriddb.IndexDebt) {
	var rows int64
	var tax time.Duration
	for _, d := range debts {
		rows += d.Debt.DeltaRows
		tax += d.Debt.ScanTax
	}
	rep.set("colstore.delta_rows_end", float64(rows), "count")
	rep.set("colstore.scan_tax_ms_end", ms(tax), "ms")
}

// overheadMetrics reports tracing overhead: each end-to-end value of
// the traced phase minus the untraced phase's.
func overheadMetrics(rep *report, untraced, traced e2e) {
	rep.set("trace.overhead.txn_per_s", traced.txnPerS-untraced.txnPerS, "1/s")
	rep.set("trace.overhead.txn_ms_p50", traced.txnP50-untraced.txnP50, "ms")
	rep.set("trace.overhead.txn_ms_p95", traced.txnP95-untraced.txnP95, "ms")
	rep.set("trace.overhead.query_ms_geomean", traced.queryGeomean-untraced.queryGeomean, "ms")
	rep.set("trace.overhead.queries_per_s", traced.queriesPerS-untraced.queriesPerS, "1/s")
}

// lockWaitMetrics estimates statement-lock waits from client-side
// spans: an OLTP write statement that starts while an analytic
// statement is in flight waits for it to finish, so its overlap with
// that statement is taken as its wait. The fraction is over all OLTP
// statement wall; the p50 is over statements that waited.
func lockWaitMetrics(rep *report, spans []span) {
	var olap []span
	var oltpWall float64
	for _, s := range spans {
		if s.Name == "stmt" && s.Conn == "olap" {
			olap = append(olap, s)
		}
	}
	sort.Slice(olap, func(i, j int) bool { return olap[i].Start < olap[j].Start })
	var waits []float64
	for _, s := range spans {
		if s.Name != "stmt" || s.Conn != "oltp" {
			continue
		}
		oltpWall += float64(s.dur())
		if s.Kind == "SELECT" {
			continue
		}
		i := sort.Search(len(olap), func(i int) bool { return olap[i].Start >= s.Start }) - 1
		if i < 0 || olap[i].End <= s.Start {
			continue
		}
		waits = append(waits, float64(min(s.End, olap[i].End)-s.Start))
	}
	rep.set("session.lock_wait_frac", frac(sum(waits), oltpWall), "frac")
	rep.set("session.lock_wait_ms_p50", quantile(waits, 0.5)/float64(time.Millisecond), "ms")
}

// wireMetrics sets the codec p50s and their share of statement wall.
func wireMetrics(rep *report, spans []span) {
	stmtWall := sum(durs(spans, "stmt"))
	for _, n := range []string{"wire.encode", "wire.decode"} {
		d := durs(spans, n)
		rep.set(n+"_us", quantile(d, 0.5)/float64(time.Microsecond), "us")
		rep.set(n+".share", frac(sum(d), stmtWall), "frac")
	}
}

// finishTrace writes the spans out and notes where.
func finishTrace(rep *report, rec *recorder, o options) {
	path, err := rec.write(fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("spans: %d recorded, not written: %v", len(rec.spans), err))
		return
	}
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s", len(rec.spans), path))
}
