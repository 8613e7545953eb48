package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hybriddb"
)

// Workloads. Each is a closed loop on the engine's default options,
// generated from this one process by at most two clients.
//
//   - ch_olap: one in-process client runs the 22 CH queries in order,
//     reads only. Exec, colstore and the optimizer do the work; the B+
//     tree DML path, the statement lock, wire and the mover do none.
//   - ch_oltp: one in-process client runs the seeded TPC-C stream.
//     Point reads and writes through sql, DML scan choice, B+ seeks and
//     table writes dominate; large exec operators and wire idle.
//   - ch_htap: the served system. One wire connection runs the ch_oltp
//     stream while a second loops the 22 queries, so writes share the
//     statement lock, wire, query store and mover with analytic reads.

func runOLAP(o options) (*report, error) {
	rounds := setupRounds
	if o.trace {
		rounds = 1
	}
	db, setups, err := timedSetups(rounds, func() (*hybriddb.DB, error) { return loadCH(o.seed) },
		func(*hybriddb.DB) error { return nil })
	if err != nil {
		return nil, err
	}
	ref, err := olapReference(db, o.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	m := &measure{}
	m.before = readCounters()
	olapLoop(localRunner{db}, ref, o.dur, true, m, &rep.tally)
	m.after = readCounters()
	m.settle()
	rep.notes = append(rep.notes, fmt.Sprintf("ch_olap: %d passes of 22 queries in %.2fs", len(m.segDur), m.window.Seconds()))
	if !o.trace {
		rep.set("setup_s", median(setups), "s")
		m.values().set(rep)
		return rep, nil
	}

	zeroLayers(rep)
	counterMetrics(rep, m.before, m.after, len(m.qMS), len(m.qMS), m.heap.peak)
	rec := newRecorder()
	te := newTracedEngine(db, rec)
	tm := &measure{}
	olapLoop(te, ref, o.dur, true, tm, &rep.tally)
	stageMetrics(rep, rec.spans, te)
	overheadMetrics(rep, m.values(), tm.values())
	finishTrace(rep, rec, o)
	return rep, nil
}

// oltpPhase runs the seeded stream on db until stop and checks TPC-C
// consistency afterwards. A non-nil rec sends it through the layered
// engine path with spans. It returns the measure, the number of
// transactions run and the layered engine.
func oltpPhase(o options, db *hybriddb.DB, rec *recorder, stop func(int, time.Duration) bool,
	t *tally) (*measure, int, *tracedEngine, error) {
	initial, err := tableCounts(localRunner{db})
	if err != nil {
		return nil, 0, nil, err
	}
	var r runner = localRunner{db}
	var te *tracedEngine
	if rec != nil {
		te = newTracedEngine(db, rec)
		r = te
	}
	m, led := &measure{}, newLedger()
	m.before = readCounters()
	n := oltpLoop(r, rec, "", newTxnStream(o.seed), stop, m, led, t)
	m.after = readCounters()
	m.settle()
	if err := checkTPCC(localRunner{db}, initial, led, t); err != nil {
		return nil, 0, nil, err
	}
	return m, n, te, nil
}

func runOLTP(o options) (*report, error) {
	rounds := setupRounds
	if o.trace {
		rounds = 1
	}
	db, setups, err := timedSetups(rounds, func() (*hybriddb.DB, error) { return loadCH(o.seed) },
		func(*hybriddb.DB) error { return nil })
	if err != nil {
		return nil, err
	}
	rep := &report{}
	m, n, _, err := oltpPhase(o, db, nil, forDuration(o.dur), &rep.tally)
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("ch_oltp: %d transactions in %.2fs", n, m.window.Seconds()))
	if !o.trace {
		rep.set("setup_s", median(setups), "s")
		m.values().set(rep)
		return rep, nil
	}

	zeroLayers(rep)
	counterMetrics(rep, m.before, m.after, len(m.txnMS), len(m.qMS), m.heap.peak)
	runtime.GC() // drop the measured database before building the next
	rec := newRecorder()
	tm, layered, tn, err := tracedOLTP(o, rec, rep)
	if err != nil {
		return nil, err
	}
	overheadMetrics(rep, m.values(), tm.values())

	// Fidelity: the same transactions through Exec must leave every
	// table identical to the layered run.
	runtime.GC()
	plain, err := loadCH(o.seed)
	if err != nil {
		return nil, err
	}
	var ft tally
	if _, _, _, err := oltpPhase(o, plain, nil, forCount(tn), &ft); err != nil {
		return nil, err
	}
	want, err := tableDigests(plain)
	if err != nil {
		return nil, err
	}
	rep.attempted++
	for name, d := range want {
		if layered[name] != d {
			rep.fail("fidelity: table %s after %d layered transactions is %s, through Exec %s", name, tn, layered[name], d)
			break
		}
	}
	if ft.failed > 0 {
		rep.fail("fidelity: the Exec replay failed %d operations", ft.failed)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("fidelity: %d transactions, %d tables identical through the layered path and Exec: %v",
		tn, len(want), rep.failed == 0))
	finishTrace(rep, rec, o)
	return rep, nil
}

// tracedOLTP replays the seeded stream through the layered engine path
// on a fresh database for o.dur, sets the per-layer timings, and
// returns the phase's measure, the digest of every table afterwards
// and the number of transactions run.
func tracedOLTP(o options, rec *recorder, rep *report) (*measure, map[string]string, int, error) {
	db, err := loadCH(o.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	m, n, te, err := oltpPhase(o, db, rec, forDuration(o.dur), &rep.tally)
	if err != nil {
		return nil, nil, 0, err
	}
	stageMetrics(rep, rec.spans, te)
	digests, err := tableDigests(db)
	return m, digests, n, err
}

// htapPhase runs both clients of the served system on one seeded
// stream: an unmeasured warm-up window of a single query pass, then the
// measured window of o.dur (see htapWindow). The first pass after setup
// is mostly the slowest of a run, its Q03 up to a fifth over the
// run's median, so it is left out. TPC-C consistency is checked over
// both windows.
func htapPhase(o options, s *served, rec *recorder, t *tally) (oltp, olap *measure, err error) {
	initial, err := tableCounts(localRunner{s.db})
	if err != nil {
		return nil, nil, err
	}
	stream, led := newTxnStream(o.seed), newLedger()
	htapWindow(s, nil, 0, stream, led, t)
	oltp, olap = htapWindow(s, rec, o.dur, stream, led, t)
	if err := checkTPCC(localRunner{s.db}, initial, led, t); err != nil {
		return nil, nil, err
	}
	return oltp, olap, nil
}

// htapWindow runs both clients over whole query passes: the analytic
// connection loops the 22 queries until d has elapsed and its pass
// ends, which ends the window; the OLTP connection runs the stream
// until then and finishes the transaction in flight.
func htapWindow(s *served, rec *recorder, d time.Duration, stream *txnStream, led *ledger, t *tally) (oltp, olap *measure) {
	oltp, olap = &measure{}, &measure{}
	done := make(chan struct{})
	var windowEnd time.Time
	var qt tally
	var wg sync.WaitGroup
	oltp.before = readCounters()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		olapLoop(&wireRunner{c: s.olap, conn: "olap", rec: rec}, nil, d, true, olap, &qt)
		windowEnd = time.Now()
	}()
	stopped := func(int, time.Duration) bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	oltpLoop(&wireRunner{c: s.oltp, conn: "oltp", rec: rec}, rec, "oltp", stream, stopped, oltp, led, t)
	wg.Wait()
	oltp.after = readCounters()
	t.merge(qt)

	oltp.start, oltp.window = start, windowEnd.Sub(start)
	oltp.settle()
	return oltp, olap
}

// htapValues are the served workload's end-to-end values. The
// transaction rate counts the OLTP connection's TPC-C transactions
// over the whole window, the one in flight at its end by the share of
// its time that fell inside. With one closed-loop client their mean
// latency is the rate's inverse. The percentiles and query figures are
// the analytic connection's, per pass, each query a read-only
// transaction as on ch_olap: TPC-C transactions are too few for a
// steady percentile, since every write waits out the analytic
// statement in flight and only about one completes per second.
func htapValues(oltp, olap *measure) e2e {
	windowEnd := oltp.start.Add(oltp.window)
	done := 0.0
	for i, end := range oltp.txnEnd {
		start := oltp.txnStart[i]
		switch {
		case !end.After(windowEnd):
			done++
		case start.Before(windowEnd):
			done += float64(windowEnd.Sub(start)) / float64(end.Sub(start))
		}
	}
	v := olap.values()
	v.txnPerS = done / oltp.window.Seconds()
	v.heapMB = float64(oltp.heapEnd) / (1 << 20)
	return v
}

func runHTAP(o options) (*report, error) {
	rounds := setupRounds
	if o.trace {
		rounds = 1
	}
	s, setups, err := timedSetups(rounds, func() (*served, error) { return serveCH(o.seed) }, (*served).close)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	oltp, olap, err := htapPhase(o, s, nil, &rep.tally)
	if err != nil {
		s.close()
		return nil, err
	}
	debts := s.db.CompactionDebts()
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("shut down: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("ch_htap: %d passes and %d transactions in a %.2fs window",
		len(olap.segDur), len(oltp.txnMS), oltp.window.Seconds()))
	if !o.trace {
		rep.set("setup_s", median(setups), "s")
		htapValues(oltp, olap).set(rep)
		return rep, nil
	}

	zeroLayers(rep)
	counterMetrics(rep, oltp.before, oltp.after, len(oltp.txnMS), len(olap.qMS)+len(oltp.qMS), max(oltp.heap.peak, olap.heap.peak))
	debtMetrics(rep, debts)
	runtime.GC() // drop the measured system before building the next

	traced, err := serveCH(o.seed)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	toltp, tolap, err := htapPhase(o, traced, rec, &rep.tally)
	if cerr := traced.close(); err == nil && cerr != nil {
		err = fmt.Errorf("shut down: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	lockWaitMetrics(rep, rec.spans)
	wireMetrics(rep, rec.spans)
	overheadMetrics(rep, htapValues(oltp, olap), htapValues(toltp, tolap))
	finishTrace(rep, rec, o)
	return rep, nil
}
