package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"hybriddb"
	"hybriddb/client/hybridsql"
	"hybriddb/internal/value"
	"hybriddb/internal/wire"
)

// stmtResult is what a client sees of one statement.
type stmtResult struct {
	header   *wire.ResultHeader // set on the wire path only
	rows     []value.Row
	affected int64
}

// runner executes generated SQL for one client.
type runner interface {
	// stmt runs one statement; parent is the caller's span id (0 when
	// untraced).
	stmt(q string, parent int64) (stmtResult, error)
	// excluded is the wall time the runner has spent so far on its own
	// instrumentation, which the loops take out of what they time.
	excluded() time.Duration
}

// localRunner is an in-process client on the engine's default options.
type localRunner struct{ db *hybriddb.DB }

func (l localRunner) stmt(q string, _ int64) (stmtResult, error) {
	res, err := l.db.Exec(q)
	if err != nil {
		return stmtResult{}, err
	}
	return stmtResult{rows: res.Rows, affected: res.RowsAffected}, nil
}

func (localRunner) excluded() time.Duration { return 0 }

// wireRunner is one hybridsql connection. With a recorder it records a
// client-side span per statement and times the wire codec on each
// result set it received.
type wireRunner struct {
	c    *hybridsql.Client
	conn string
	rec  *recorder
	excl time.Duration
}

func (w *wireRunner) stmt(q string, parent int64) (stmtResult, error) {
	id := w.rec.id()
	start := time.Now()
	h, rows, err := w.c.Exec(q)
	end := time.Now()
	w.rec.add(span{ID: id, Parent: parent, Stmt: id, Conn: w.conn, Name: "stmt", Kind: stmtKind(q)}, start, end)
	if err != nil {
		return stmtResult{}, err
	}
	res := stmtResult{header: h, rows: rows, affected: h.RowsAffected}
	if w.rec != nil {
		if err := w.codec(id, res); err != nil {
			return stmtResult{}, err
		}
		w.excl += time.Since(end)
	}
	return res, nil
}

func (w *wireRunner) excluded() time.Duration { return w.excl }

// codec re-encodes a received result set with the wire package's
// Builder and ResultHeader.Encode, decodes it back with Reader and
// DecodeResultHeader, and records both as spans under the statement.
// A round trip that changes the result is an error.
func (w *wireRunner) codec(stmtID int64, res stmtResult) error {
	start := time.Now()
	hdr := res.header.Encode()
	var b wire.Builder
	for _, row := range res.rows {
		for _, v := range row {
			b.Value(v)
		}
	}
	body := b.Bytes()
	mid := time.Now()
	h, err := wire.DecodeResultHeader(hdr)
	if err != nil {
		return fmt.Errorf("wire round trip: %w", err)
	}
	r := wire.NewReader(body)
	for _, row := range res.rows {
		for ci := range h.Columns {
			v, err := r.Value()
			if err != nil {
				return fmt.Errorf("wire round trip: %w", err)
			}
			if ci >= len(row) || value.Compare(v, row[ci]) != 0 || v.Kind() != row[ci].Kind() {
				return fmt.Errorf("wire round trip changed a value")
			}
		}
	}
	end := time.Now()
	w.rec.add(span{ID: w.rec.id(), Parent: stmtID, Stmt: stmtID, Conn: w.conn, Name: "wire.encode"}, start, mid)
	w.rec.add(span{ID: w.rec.id(), Parent: stmtID, Stmt: stmtID, Conn: w.conn, Name: "wire.decode"}, mid, end)
	return nil
}

// heapPeak tracks the peak live Go heap, sampled at statement
// boundaries.
type heapPeak struct {
	s    []rtmetrics.Sample
	peak uint64
}

func (h *heapPeak) observe() {
	if h.s == nil {
		h.s = []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	}
	rtmetrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// measure collects one client's end-to-end observations. A phase is
// cut into segments of fixed composition, one query pass or one round
// of the transaction mix, and each rate and percentile is the median
// of its per-segment values: a stall that hits one segment moves the
// median less than it moves a whole-phase figure.
type measure struct {
	txnMS    []float64 // latency samples behind the txn_ms percentiles
	txnStart []time.Time
	txnEnd   []time.Time
	txnSeg   []int
	qMS      []float64 // query latencies, in order
	qSeg     []int
	start    time.Time // of the window, where a caller sets one
	window   time.Duration
	heap     heapPeak
	heapEnd  uint64 // live heap after the window, forced GC

	before, after counters // around the window

	segDur   []time.Duration // completed segments
	segEnd   []time.Time
	segStart time.Time
	segExcl  time.Duration
}

func (m *measure) txn(d time.Duration, start, end time.Time) {
	m.txnMS = append(m.txnMS, ms(d))
	m.txnStart = append(m.txnStart, start)
	m.txnEnd = append(m.txnEnd, end)
	m.txnSeg = append(m.txnSeg, len(m.segDur))
}

func (m *measure) query(d time.Duration) {
	m.qMS = append(m.qMS, ms(d))
	m.qSeg = append(m.qSeg, len(m.segDur))
}

// begin starts the first segment; cut ends the current one and starts
// the next. excl is the runner's instrumentation time so far.
func (m *measure) begin(now time.Time, excl time.Duration) { m.segStart, m.segExcl = now, excl }

func (m *measure) cut(now time.Time, excl time.Duration) {
	m.segDur = append(m.segDur, now.Sub(m.segStart)-(excl-m.segExcl))
	m.segEnd = append(m.segEnd, now)
	m.begin(now, excl)
}

// settle collects garbage at the window's last statement boundary and
// reads the live heap that remains.
func (m *measure) settle() {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	m.heapEnd = s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// e2e holds a phase's end-to-end values.
type e2e struct {
	txnPerS, txnP50, txnP95, queryGeomean, queriesPerS, heapMB float64
}

// set reports the values. txn_ms_p50 is printed but kept out of the
// result line: on ch_olap and ch_htap it is the median of 22 fixed
// query templates, which falls in the gap between the cheap and the
// mid-cost ones and swings by a third from run to run.
func (v e2e) set(rep *report) {
	rep.set("txn_per_s", v.txnPerS, "1/s")
	rep.setInfo("txn_ms_p50", v.txnP50, "ms")
	rep.set("txn_ms_p95", v.txnP95, "ms")
	rep.set("query_ms_geomean", v.queryGeomean, "ms")
	rep.set("queries_per_s", v.queriesPerS, "1/s")
	rep.set("heap_mb", v.heapMB, "MB")
}

// values takes the median over completed segments, or the whole
// window when none completed, of each rate and percentile and of the
// geometric mean of the segment's query latencies. A segment holds
// each query template equally often, so every template weighs the
// same in that mean.
func (m *measure) values() e2e {
	durs := m.segDur
	if len(durs) == 0 {
		durs = []time.Duration{m.window}
	}
	var rate, p50, p95, geo, qps []float64
	for s, d := range durs {
		var lat, qlat []float64
		for i, ts := range m.txnSeg {
			if ts == s {
				lat = append(lat, m.txnMS[i])
			}
		}
		for i, qs := range m.qSeg {
			if qs == s {
				qlat = append(qlat, m.qMS[i])
			}
		}
		rate = append(rate, float64(len(lat))/d.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		p95 = append(p95, quantile(lat, 0.95))
		geo = append(geo, geomean(qlat))
		qps = append(qps, float64(len(qlat))/d.Seconds())
	}
	return e2e{
		txnPerS:      median(rate),
		txnP50:       median(p50),
		txnP95:       median(p95),
		queryGeomean: median(geo),
		queriesPerS:  median(qps),
		heapMB:       float64(m.heapEnd) / (1 << 20),
	}
}

// olapLoop runs whole passes over the 22 queries until d has elapsed.
// A non-nil ref holds each query's expected result checksum. With
// asTxns every query also counts as one read-only transaction.
func olapLoop(r runner, ref []string, d time.Duration, asTxns bool, m *measure, t *tally) {
	start, ex0 := time.Now(), r.excluded()
	m.begin(start, ex0)
	for {
		for i, q := range chQueries {
			t.attempted++
			s0, e0 := time.Now(), r.excluded()
			res, err := r.stmt(q, 0)
			lat := time.Since(s0) - (r.excluded() - e0)
			m.heap.observe()
			if err != nil {
				t.fail("%s: %v", queryName(i), err)
				continue
			}
			if ref != nil {
				if got := checksum(res.rows); got != ref[i] {
					t.fail("%s: result checksum %s, want %s", queryName(i), got, ref[i])
				}
			}
			m.query(lat)
			if asTxns {
				m.txn(lat, s0, time.Now())
			}
		}
		m.cut(time.Now(), r.excluded())
		if time.Since(start) >= d {
			break
		}
	}
	m.window = time.Since(start) - (r.excluded() - ex0)
}

// ledger tallies the rows committed transactions inserted into and
// deleted from each table.
type ledger struct{ inserted, deleted map[string]int64 }

func newLedger() *ledger {
	return &ledger{inserted: map[string]int64{}, deleted: map[string]int64{}}
}

// oltpLoop runs transactions from stream until stop reports true
// (given the count run and the time elapsed) and returns how many it
// ran. Every statement's outcome is checked against what the stream
// asked for: single-row INSERTs and DELETE TOP 1 affect exactly one
// row, UPDATEs name existing keys, SELECTs return one row.
func oltpLoop(r runner, rec *recorder, conn string, stream *txnStream, stop func(n int, elapsed time.Duration) bool,
	m *measure, led *ledger, t *tally) int {
	start, ex0 := time.Now(), r.excluded()
	m.begin(start, ex0)
	n := 0
	for ; !stop(n, time.Since(start)); n++ {
		tx := stream.next()
		t.attempted++
		id := rec.id()
		t0, e0 := time.Now(), r.excluded()
		var bad error
		for _, q := range tx.Stmts {
			s0, se0 := time.Now(), r.excluded()
			res, err := r.stmt(q, id)
			lat := time.Since(s0) - (r.excluded() - se0)
			m.heap.observe()
			if err != nil {
				bad = err
				break
			}
			switch stmtKind(q) {
			case "INSERT", "DELETE":
				if res.affected != 1 {
					bad = fmt.Errorf("%q affected %d rows, want 1", q, res.affected)
				}
				if stmtKind(q) == "INSERT" {
					led.inserted[dmlTable(q)] += res.affected
				} else {
					led.deleted[dmlTable(q)] += res.affected
				}
			case "UPDATE":
				if res.affected < 1 {
					bad = fmt.Errorf("%q matched no rows", q)
				}
			case "SELECT":
				if len(res.rows) != 1 {
					bad = fmt.Errorf("%q returned %d rows, want 1", q, len(res.rows))
				}
				m.query(lat)
			}
		}
		end := time.Now()
		rec.add(span{ID: id, Conn: conn, Name: "txn", Kind: tx.Name}, t0, end)
		if bad != nil {
			t.fail("%s: %v", tx.Name, bad)
		} else {
			m.txn(end.Sub(t0)-(r.excluded()-e0), t0, end)
		}
		if (n+1)%mixPeriod == 0 {
			m.cut(time.Now(), r.excluded())
		}
	}
	m.window = time.Since(start) - (r.excluded() - ex0)
	return n
}

func forDuration(d time.Duration) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed >= d }
}

func forCount(c int) func(int, time.Duration) bool {
	return func(n int, _ time.Duration) bool { return n >= c }
}

// counters is a snapshot of the engine's metrics registry and of the
// Go runtime's CPU and allocation counters.
type counters struct {
	eng                      map[string]float64
	gcCPU, totalCPU, idleCPU float64
	allocBytes               float64
}

func readCounters() counters {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	return counters{
		eng:        hybriddb.MetricsSnapshot(),
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		idleCPU:    s[2].Value.Float64(),
		allocBytes: float64(s[3].Value.Uint64()),
	}
}

func (c counters) delta(before counters, name string) float64 { return c.eng[name] - before.eng[name] }
