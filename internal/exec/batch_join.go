package exec

import (
	"math"
	"sync"

	"hybriddb/internal/colstore"
	"hybriddb/internal/metrics"
	"hybriddb/internal/plan"
	"hybriddb/internal/sql"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
	"hybriddb/internal/vec"
)

// batchHashJoin is the batch-spine hash join. The build side is drained
// into a columnar store (typed vectors, one growable column per
// populated slot). When the join key is integer-backed the hash table
// is an int64 map: value.EncodeKey carries no kind tag for int-payload
// kinds, so the raw payload is the same key the row-mode table hashes.
// Parallel-marked int-keyed builds shard that store by key hash into
// per-worker partitions built concurrently (see buildPartitionedBatch);
// serial and string-keyed builds use exactly one partition. Probe
// batches stream through, emitting columnar output batches when both
// sides are columnar and composite rows otherwise.
//
// Composite keys. The optimizer hashes one equality (LeftSlot =
// RightSlot) and leaves a multi-column join's other equalities in
// Residual. An int-keyed build also hashes every residual conjunct
// foldKeys accepts: ColRef = ColRef between a stored build column and
// a probe-side column, both of the store column's int-backed kind. The
// key columns' payloads are folded with mixKey into the one int64
// table key, so partitioning and lookup are unchanged; a single-key
// join keeps the raw payload. A mixed key can collide, so every
// candidate is verified by comparing each key column's payload
// (keysMatch) — exactly what `=` between two values of one int-backed
// kind decides. Folded conjuncts are dropped from the per-match
// evaluation; the rest still run, and a columnar probe with none left
// skips the scratch-row fill.
//
// Charge parity with the row-mode hashJoinCursor is exact: the probe
// subtree is constructed before the build drain (grant-aware blocking
// operators below the probe side allocate and release before build
// memory is held), each build row with a non-null LeftSlot allocates
// Width()+32 then charges HashCPU — also when a folded key is NULL and
// the row is left out of the table, since no probe could pass its
// residual — each probe row charges HashCPU before its null checks,
// residual conjuncts evaluate uncharged, and the build memory is freed
// when the last output has been emitted. The matches for a composite
// key are the residual-passing subsequence of the single-key match
// list, in build-input order, so output order is unchanged at any
// partition count.
type batchHashJoin struct {
	ctx *Context
	j   *plan.Join

	// Build store: columnar partitions (parts) or composite rows
	// (storeRows), decided on the first build batch.
	parts      []*joinPart
	storeSlots []int
	storeRows  []value.Row

	// htable is the string-keyed hash table (always single-partition);
	// integer-backed keys live in the per-partition itable maps. All
	// tables are nil when the build side is empty (probes then charge
	// and miss, as in row mode).
	htable map[string][]int32

	// Composite key (foldKeys): store column of every key, LeftSlot
	// first, and the probe slot of every key beyond RightSlot; keyCols is
	// nil for a single-key join. keyKinds holds the kind of every key of
	// an int-keyed build, LeftSlot's first. rest is the residual left to
	// evaluate per match.
	keyCols    []int
	keyKinds   []value.Kind
	probeExtra []int
	rest       []sql.Expr

	bytes int64
	freed bool

	probe BatchCursor // serial probe input (nil when fused)
	st    *probeState

	fused    bool
	gathered []*SlotBatch
	gpos     int
}

// joinPart is one build-side partition: a columnar row store plus the
// int-keyed hash table over it. Rows are assigned to partitions by key
// hash, so every match for one probe key lives in one partition, and
// each partition is appended by exactly one builder scanning the input
// in order — the two facts that make partitioned output row-for-row
// identical to a serial build at any partition count.
type joinPart struct {
	store  []*vec.Vec
	itable map[int64][]int32
	n      int
}

func newJoinPart(kinds []value.Kind, intKey bool) *joinPart {
	pt := &joinPart{}
	for _, k := range kinds {
		pt.store = append(pt.store, vec.NewVec(k))
	}
	if intKey {
		pt.itable = make(map[int64][]int32)
	}
	return pt
}

// partitionOf assigns an int-backed join key to a build partition with
// a splitmix64-style finalizer. The raw payload doubles as the hash-
// table key, so the partition function must scramble it first:
// sequential surrogate keys would otherwise stripe into few partitions.
func partitionOf(k int64, parts int) int {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(parts))
}

// buildPartitions picks the build fan-out for a Parallel-marked join:
// the real worker budget clamped to schedulable CPUs. The count only
// affects wall-clock time — partition assignment is a pure function of
// the key and every virtual charge is issued by the coordinator in
// build-input order — so any value is bit-compatible with serial.
func buildPartitions(ctx *Context) int {
	w := ctx.Workers
	if p := SchedulableCPUs(); w > p {
		w = p
	}
	if w < 1 {
		w = 1
	}
	return w
}

// intKeyed reports whether the columnar build keyed by int64 payload.
func (c *batchHashJoin) intKeyed() bool {
	return len(c.parts) > 0 && c.parts[0].itable != nil
}

// lookupInt returns the matches for an int-backed probe key and the
// partition storing them.
func (c *batchHashJoin) lookupInt(k int64) ([]int32, *joinPart) {
	if len(c.parts) == 0 {
		return nil, nil
	}
	pt := c.parts[0]
	if len(c.parts) > 1 {
		pt = c.parts[partitionOf(k, len(c.parts))]
	}
	return pt.itable[k], pt
}

func (c *batchHashJoin) part0() *joinPart {
	if len(c.parts) == 0 {
		return nil
	}
	return c.parts[0]
}

// probeState is the per-prober scratch: serial probing has one, each
// fused morsel worker gets its own.
type probeState struct {
	scratch value.Row
	buf     []byte

	keyRes  bool
	keyVi   int   // probe-batch vector carrying the join key, -1 if absent
	extraVi []int // probe-batch vector per folded key beyond the first
	vals    []int64

	// Columnar-output plumbing, resolved against the first columnar
	// probe batch (slot mappings are stable across a producer's batches).
	colInit  bool
	colOut   bool
	probeSrc []int // probe vector index per probe-side output column
	outSlots []int
	kinds    []value.Kind
	outB     *vec.Batch

	// owned marks fused-probe states: emitted batches must survive past
	// the next probeOne call, so output vectors are not reused.
	owned bool
}

func newBatchHashJoin(ctx *Context, j *plan.Join) (BatchCursor, error) {
	c := &batchHashJoin{ctx: ctx, j: j}
	build, err := BuildBatch(ctx, j.Outer)
	if err != nil {
		return nil, err
	}

	// Probe side next, before the build drain — the row-mode constructor
	// order. The fused morsel probe (Parallel-marked join over a
	// parallelizable CSI probe scan) skips cursor construction entirely:
	// per-morsel sources feed probeOne directly after the build.
	var fusedScan *plan.Scan
	var fusedMorsels []colstore.ScanPartition
	if scan, ok := j.Inner.(*plan.Scan); ok && scan.Access == plan.AccessCSIScan && j.Parallel {
		if _, ms, pok := parallelizableScan(ctx, scan.Parallel, scan); pok {
			fusedScan, fusedMorsels = scan, ms
		}
	}
	if fusedScan == nil {
		if c.probe, err = BuildBatch(ctx, j.Inner); err != nil {
			return nil, err
		}
		c.st = c.newProbeState(false)
	}

	m := ctx.Tr.Model
	var buf []byte
	first := true
	colStore := false
	keyVi := -1
	var storeSrc []int // build vector index per store column
	c.rest = j.Residual
	for {
		sb, ok := build.NextBatch()
		if !ok {
			break
		}
		if first {
			first = false
			if sb.Rows == nil {
				keyVi = slotVec(sb.Slots, j.LeftSlot)
				colStore = keyVi >= 0
			}
			if colStore {
				var kinds []value.Kind
				for vi, slot := range sb.Slots {
					if slot < 0 {
						continue
					}
					kinds = append(kinds, sb.B.Cols[vi].Kind)
					c.storeSlots = append(c.storeSlots, slot)
					storeSrc = append(storeSrc, vi)
				}
				nParts := 1
				intKey := intBacked(sb.B.Cols[keyVi].Kind)
				if intKey {
					c.keyCols, c.probeExtra, c.rest = foldKeys(j, c.storeSlots, kinds)
					c.keyKinds = []value.Kind{sb.B.Cols[keyVi].Kind}
					for i := 1; i < len(c.keyCols); i++ {
						c.keyKinds = append(c.keyKinds, kinds[c.keyCols[i]])
					}
				}
				if intKey && j.Parallel {
					nParts = buildPartitions(ctx)
				}
				for pi := 0; pi < nParts; pi++ {
					c.parts = append(c.parts, newJoinPart(kinds, intKey))
				}
				if !intKey {
					c.htable = make(map[string][]int32)
				}
				if nParts > 1 {
					mBuildPartitions.Add(int64(nParts))
					if ctx.Trace != nil {
						ctx.Trace.SetAttr("build_partitions", int64(nParts))
					}
				}
			} else {
				c.htable = make(map[string][]int32)
			}
		}
		if colStore {
			extra := c.extraBuildVecs(sb, storeSrc)
			if len(c.parts) > 1 {
				c.buildPartitionedBatch(sb, keyVi, storeSrc, extra)
				continue
			}
			pt := c.parts[0]
			kv := sb.B.Cols[keyVi]
			n := sb.Len()
			for i := 0; i < n; i++ {
				p := sb.B.LiveIndex(i)
				if kv.IsNull(p) {
					continue
				}
				if pt.itable == nil {
					buf = value.EncodeKey(buf[:0], kv.Value(p))
					c.htable[string(buf)] = append(c.htable[string(buf)], int32(pt.n))
					pt.add(sb, storeSrc, p)
				} else if k, ok := mixExtra(kv.I[p], extra, p, nil); ok {
					pt.itable[k] = append(pt.itable[k], int32(pt.n))
					pt.add(sb, storeSrc, p)
				}
				w := int64(sb.rowWidth(i, ctx.TotalSlots) + 32)
				ctx.Tr.Alloc(w)
				c.bytes += w
				ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.HashCPU), 1.0)
			}
			continue
		}
		for _, row := range sb.materializeRows(ctx.TotalSlots) {
			k := row[j.LeftSlot]
			if k.IsNull() {
				continue
			}
			buf = value.EncodeKey(buf[:0], k)
			c.htable[string(buf)] = append(c.htable[string(buf)], int32(len(c.storeRows)))
			c.storeRows = append(c.storeRows, row)
			w := int64(row.Width() + 32)
			ctx.Tr.Alloc(w)
			c.bytes += w
			ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.HashCPU), 1.0)
		}
	}
	if ctx.Trace != nil {
		ctx.Trace.SetAttr("hash_keys", int64(max(1, len(c.keyCols))))
	}

	if fusedScan != nil {
		if err := c.fusedProbe(fusedScan, fusedMorsels); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildPartitionedBatch routes one borrowed build batch into the
// partitions SPMD-style: every partition's builder goroutine scans the
// whole batch and appends only its own rows, so there are no routing
// queues and per-partition order is build-input order. The coordinator
// concurrently issues the serial charge multiset — Alloc then HashCPU
// per non-null row, in input order on the main tracker — while the
// builders touch only real memory; Metrics and MemPeak are therefore
// bit-identical to a single-partition build. The per-batch barrier
// keeps the borrowed batch alive until every builder is done with it.
func (c *batchHashJoin) buildPartitionedBatch(sb *SlotBatch, keyVi int, storeSrc []int, extra []*vec.Vec) {
	kv := sb.B.Cols[keyVi]
	n := sb.Len()
	P := len(c.parts)
	var wg sync.WaitGroup
	for pi := 0; pi < P; pi++ {
		wg.Add(1)
		go func(pi int, pt *joinPart) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				p := sb.B.LiveIndex(i)
				if kv.IsNull(p) {
					continue
				}
				k, ok := mixExtra(kv.I[p], extra, p, nil)
				if !ok || partitionOf(k, P) != pi {
					continue
				}
				pt.itable[k] = append(pt.itable[k], int32(pt.n))
				pt.add(sb, storeSrc, p)
			}
		}(pi, c.parts[pi])
	}
	m := c.ctx.Tr.Model
	for i := 0; i < n; i++ {
		p := sb.B.LiveIndex(i)
		if kv.IsNull(p) {
			continue
		}
		w := int64(sb.rowWidth(i, c.ctx.TotalSlots) + 32)
		c.ctx.Tr.Alloc(w)
		c.bytes += w
		c.ctx.Tr.ChargeParallelCPU(vclock.CPU(1, m.HashCPU), 1.0)
	}
	wg.Wait()
}

// add appends build row p to the partition's store.
func (pt *joinPart) add(sb *SlotBatch, storeSrc []int, p int) {
	for si, vi := range storeSrc {
		pt.store[si].AppendFrom(sb.B.Cols[vi], p)
	}
	pt.n++
}

// foldKeys picks the residual conjuncts an int-keyed build hashes
// beside LeftSlot = RightSlot: ColRef = ColRef between a stored build
// column and a column of a table the probe subtree scans, both of the
// store column's int-backed kind. In the composite row the residual
// sees, such a conjunct compares the stored build value with the probe
// value, and `=` on one int-backed kind is payload equality. Mixed
// kinds, strings, and equalities within one side stay in rest. It
// returns the store column of every key (LeftSlot first) and the probe
// slot of every folded one, or nil keys when nothing folds. It is a
// pure function of the plan and the stored build slots.
func foldKeys(j *plan.Join, storeSlots []int, kinds []value.Kind) (keyCols, probeExtra []int, rest []sql.Expr) {
	probeRanges, ok := scannedSlots(j.Inner, nil)
	if !ok {
		return nil, nil, j.Residual
	}
	onProbe := func(slot int) bool {
		for _, r := range probeRanges {
			if slot >= r[0] && slot < r[1] {
				return true
			}
		}
		return false
	}
	for _, e := range j.Residual {
		if sc, ps := foldable(e, storeSlots, kinds, onProbe); sc >= 0 {
			if keyCols == nil {
				keyCols = []int{slotVec(storeSlots, j.LeftSlot)}
			}
			keyCols = append(keyCols, sc)
			probeExtra = append(probeExtra, ps)
			continue
		}
		rest = append(rest, e)
	}
	return keyCols, probeExtra, rest
}

// foldable reports the store column and probe slot of a conjunct
// foldKeys can hash, or sc = -1.
func foldable(e sql.Expr, storeSlots []int, kinds []value.Kind, onProbe func(int) bool) (sc, ps int) {
	b, ok := e.(*sql.BinOp)
	if !ok || b.Op != "=" {
		return -1, 0
	}
	l, lok := b.L.(*sql.ColRef)
	r, rok := b.R.(*sql.ColRef)
	if !lok || !rok {
		return -1, 0
	}
	for _, pair := range [2][2]*sql.ColRef{{l, r}, {r, l}} {
		bc, pc := pair[0], pair[1]
		sc := slotVec(storeSlots, bc.Slot)
		if sc < 0 || onProbe(bc.Slot) || !onProbe(pc.Slot) || slotVec(storeSlots, pc.Slot) >= 0 {
			continue
		}
		if k := kinds[sc]; intBacked(k) && bc.Kind == k && pc.Kind == k {
			return sc, pc.Slot
		}
	}
	return -1, 0
}

// scannedSlots appends the composite slot range [SlotBase,
// SlotBase+width) of every table scanned under n. ok is false when n
// holds an operator other than scans, filters and joins, whose output
// slots are not its tables' own.
func scannedSlots(n plan.Node, dst [][2]int) ([][2]int, bool) {
	switch v := n.(type) {
	case *plan.Scan:
		return append(dst, [2]int{v.SlotBase, v.SlotBase + v.Table.Schema.Len()}), true
	case *plan.Filter, *plan.Join:
		for _, ch := range n.Children() {
			var ok bool
			if dst, ok = scannedSlots(ch, dst); !ok {
				return nil, false
			}
		}
		return dst, true
	}
	return nil, false
}

// extraBuildVecs returns the build batch's vector for every folded key
// beyond LeftSlot (nil for a single-key join).
func (c *batchHashJoin) extraBuildVecs(sb *SlotBatch, storeSrc []int) []*vec.Vec {
	if len(c.keyCols) == 0 {
		return nil
	}
	extra := make([]*vec.Vec, len(c.keyCols)-1)
	for i, sc := range c.keyCols[1:] {
		extra[i] = sb.B.Cols[storeSrc[sc]]
	}
	return extra
}

// mixKey folds one more key column's payload into a composite hash key.
// Distinct tuples may collide; keysMatch verifies every candidate.
func mixKey(h, k int64) int64 {
	return int64(uint64(h)*0x9e3779b97f4a7c15) + k
}

// mixExtra folds the extra key columns at position p into the first
// key's payload k. With no extra keys it returns k itself, so a
// single-key join keys its table on the raw payload. ok is false when
// an extra key is NULL; vals, when non-nil, receives their payloads.
func mixExtra(k int64, extra []*vec.Vec, p int, vals []int64) (int64, bool) {
	for i, v := range extra {
		if v.IsNull(p) {
			return 0, false
		}
		k = mixKey(k, v.I[p])
		if vals != nil {
			vals[i] = v.I[p]
		}
	}
	return k, true
}

// rowKey is mixExtra for a row-layout probe: it folds the extra keys of
// row into the first key's payload k0.
func (c *batchHashJoin) rowKey(row value.Row, k0 int64, vals []int64) (int64, bool) {
	for i, slot := range c.probeExtra {
		x, ok := rowKeyPayload(row[slot], c.keyKinds[i+1])
		if !ok {
			return 0, false
		}
		k0 = mixKey(k0, x)
		vals[i] = x
	}
	return k0, true
}

// keysMatch is the typed verify behind a composite key: build entry idx
// carries payload k0 in the first key column and vals in the others.
func (c *batchHashJoin) keysMatch(pt *joinPart, idx int32, k0 int64, vals []int64) bool {
	if pt.store[c.keyCols[0]].I[idx] != k0 {
		return false
	}
	for i, v := range vals {
		if pt.store[c.keyCols[i+1]].I[idx] != v {
			return false
		}
	}
	return true
}

// encodedPayload returns the payload under which the row spine's hash
// table, keyed by value.EncodeKey, files row value v against a hashed
// key of int-backed kind k: BIGINT and DATE share one encoding and
// BOOLEAN has its own. A value of another kind is not looked up; the
// row spine matches a DOUBLE to a BIGINT key only where their key bytes
// happen to coincide (0.0 and 0, for one).
func encodedPayload(v value.Value, k value.Kind) (int64, bool) {
	switch vk := v.Kind(); {
	case vk == value.KindBool && k == value.KindBool:
		if v.Bool() {
			return 1, true
		}
		return 0, true
	case (vk == value.KindInt || vk == value.KindDate) && k != value.KindBool:
		return v.Int(), true
	}
	return 0, false
}

// rowKeyPayload returns the payload a row value must carry to compare
// equal (value.Compare) to a value of int-backed kind k, or false when
// it is NULL or can equal no such value. A row value need not carry its
// column's declared kind: the binder keeps a non-integral DOUBLE
// inserted into a BIGINT column, for one.
func rowKeyPayload(v value.Value, k value.Kind) (int64, bool) {
	switch vk := v.Kind(); {
	case vk == value.KindNull:
		return 0, false
	case vk == value.KindBool || k == value.KindBool:
		if vk != k {
			return 0, false
		}
		if v.Bool() {
			return 1, true
		}
		return 0, true
	case vk == value.KindFloat:
		f := v.Float()
		if f != math.Trunc(f) || f < math.MinInt64 || f >= math.MaxInt64 {
			return 0, false
		}
		return int64(f), true
	case vk.Numeric():
		return v.Int(), true
	}
	return 0, false
}

func (c *batchHashJoin) newProbeState(owned bool) *probeState {
	return &probeState{scratch: make(value.Row, c.ctx.TotalSlots), keyVi: -1, owned: owned}
}

func (c *batchHashJoin) NextBatch() (*SlotBatch, bool) {
	if c.fused {
		if c.gpos < len(c.gathered) {
			sb := c.gathered[c.gpos]
			c.gpos++
			return sb, true
		}
		c.release()
		return nil, false
	}
	for {
		sb, ok := c.probe.NextBatch()
		if !ok {
			c.release()
			return nil, false
		}
		if out := c.probeOne(c.ctx.Tr, sb, c.st); out != nil {
			return out, true
		}
	}
}

// release frees the build-side memory once, when the last output has
// been emitted — the row-mode Free point, so MemPeak interleaving with
// downstream allocations is identical.
func (c *batchHashJoin) release() {
	if c.freed {
		return
	}
	c.freed = true
	c.ctx.Tr.Free(c.bytes)
	c.bytes = 0
}

// probeOne probes one input batch against the build table, returning an
// output batch of joined rows, or nil when no probe row survived.
func (c *batchHashJoin) probeOne(tr *vclock.Tracker, sb *SlotBatch, st *probeState) *SlotBatch {
	m := tr.Model
	if st.vals == nil && len(c.probeExtra) > 0 {
		st.vals = make([]int64, len(c.probeExtra))
	}
	if sb.Rows == nil && !st.keyRes {
		st.keyRes = true
		st.keyVi = slotVec(sb.Slots, c.j.RightSlot)
		for i, slot := range c.probeExtra {
			vi := slotVec(sb.Slots, slot)
			if vi < 0 || sb.B.Cols[vi].Kind != c.keyKinds[i+1] {
				st.keyVi = -1
				break
			}
			st.extraVi = append(st.extraVi, vi)
		}
	}
	if sb.Rows == nil && st.keyVi < 0 {
		// A key column is not decoded (or not of its key's kind) in this
		// batch shape: fall back to composite rows for the whole batch.
		sb = &SlotBatch{Rows: sb.materializeRows(c.ctx.TotalSlots)}
	}
	var extra []*vec.Vec
	if sb.Rows == nil && len(c.probeExtra) > 0 {
		extra = make([]*vec.Vec, len(st.extraVi))
		for i, vi := range st.extraVi {
			extra[i] = sb.B.Cols[vi]
		}
	}
	if sb.Rows == nil && c.parts != nil && !st.colInit {
		st.colInit = true
		st.colOut = true
		for _, v := range c.parts[0].store {
			st.kinds = append(st.kinds, v.Kind)
		}
		st.outSlots = append(st.outSlots, c.storeSlots...)
		for vi, slot := range sb.Slots {
			if slot < 0 {
				continue
			}
			if slotVec(c.storeSlots, slot) >= 0 {
				// A probe slot shadows a build slot (overlap): only the
				// row path reproduces the overlay semantics exactly.
				st.colOut = false
				break
			}
			st.probeSrc = append(st.probeSrc, vi)
			st.kinds = append(st.kinds, sb.B.Cols[vi].Kind)
			st.outSlots = append(st.outSlots, slot)
		}
		if !st.colOut {
			st.probeSrc, st.outSlots, st.kinds = nil, nil, nil
		}
	}
	colOut := sb.Rows == nil && c.parts != nil && st.colOut

	var outB *vec.Batch
	outCount := 0
	if colOut {
		if st.outB == nil || st.owned {
			st.outB = vec.NewBatch(st.kinds)
		} else {
			st.outB.Reset()
		}
		outB = st.outB
	}
	var rows []value.Row
	var nStoreCols int
	if c.parts != nil {
		nStoreCols = len(c.parts[0].store)
	}
	n := sb.Len()
	for i := 0; i < n; i++ {
		tr.ChargeParallelCPU(vclock.CPU(1, m.HashCPU), 1.0)
		var matches []int32
		pt := c.part0()
		var probeRow value.Row
		var p int
		var k0 int64
		if sb.Rows != nil {
			probeRow = sb.Rows[i]
			k := probeRow[c.j.RightSlot]
			if k.IsNull() {
				continue
			}
			if c.intKeyed() {
				var ok bool
				if k0, ok = encodedPayload(k, c.keyKinds[0]); !ok {
					continue
				}
				h, ok := c.rowKey(probeRow, k0, st.vals)
				if !ok {
					continue
				}
				matches, pt = c.lookupInt(h)
			} else {
				st.buf = value.EncodeKey(st.buf[:0], k)
				matches = c.htable[string(st.buf)]
			}
		} else {
			p = sb.B.LiveIndex(i)
			kv := sb.B.Cols[st.keyVi]
			if kv.IsNull(p) {
				continue
			}
			if c.intKeyed() {
				k0 = kv.I[p]
				h, ok := mixExtra(k0, extra, p, st.vals)
				if !ok {
					continue
				}
				matches, pt = c.lookupInt(h)
			} else {
				st.buf = value.EncodeKey(st.buf[:0], kv.Value(p))
				matches = c.htable[string(st.buf)]
			}
		}
		if len(matches) == 0 {
			continue
		}
		if colOut {
			for _, idx := range matches {
				if c.keyCols != nil && !c.keysMatch(pt, idx, k0, st.vals) {
					continue
				}
				if len(c.rest) > 0 {
					for si, slot := range c.storeSlots {
						st.scratch[slot] = pt.store[si].Value(int(idx))
					}
					for _, vi := range st.probeSrc {
						st.scratch[sb.Slots[vi]] = sb.B.Cols[vi].Value(p)
					}
					if !passes(c.ctx, c.rest, st.scratch) {
						continue
					}
				}
				for si := 0; si < nStoreCols; si++ {
					outB.Cols[si].AppendFrom(pt.store[si], int(idx))
				}
				for k, vi := range st.probeSrc {
					outB.Cols[nStoreCols+k].AppendFrom(sb.B.Cols[vi], p)
				}
				outCount++
			}
			continue
		}
		for _, idx := range matches {
			if c.keyCols != nil && !c.keysMatch(pt, idx, k0, st.vals) {
				continue
			}
			var out value.Row
			if c.storeRows != nil {
				out = c.storeRows[idx].Clone()
			} else {
				out = make(value.Row, c.ctx.TotalSlots)
				for si, slot := range c.storeSlots {
					out[slot] = pt.store[si].Value(int(idx))
				}
			}
			if probeRow != nil {
				for s2, v := range probeRow {
					if !v.IsNull() {
						out[s2] = v
					}
				}
			} else {
				for vi, slot := range sb.Slots {
					if slot < 0 {
						continue
					}
					if v := sb.B.Cols[vi].Value(p); !v.IsNull() {
						out[slot] = v
					}
				}
			}
			if !passes(c.ctx, c.rest, out) {
				continue
			}
			rows = append(rows, out)
		}
	}
	if colOut {
		if outCount == 0 {
			return nil
		}
		outB.SetLen(outCount)
		return &SlotBatch{B: outB, Slots: st.outSlots}
	}
	if len(rows) == 0 {
		return nil
	}
	return &SlotBatch{Rows: rows}
}

// fusedProbe runs the probe scan morsel-driven, probing each morsel's
// batches against the (read-only) build table on the worker and
// gathering owned output batches in morsel order — the serial emission
// order. The probe charges land on worker forks; sums are unchanged, so
// Metrics match a serial probe bit for bit.
func (c *batchHashJoin) fusedProbe(scan *plan.Scan, morsels []colstore.ScanPartition) error {
	ctx := c.ctx
	c.fused = true
	w := schedulableWorkers(ctx, len(morsels))
	var stn *metrics.TraceNode
	var morselTNs []*metrics.TraceNode
	if ctx.Trace != nil {
		// The probe scan never becomes a cursor, so it gets its own child
		// node assembled from per-morsel nodes that own their rows,
		// bytes, and time — as in the morsel-partial aggregation.
		stn = ctx.Trace.Child(scan.Describe())
		stn.Loops = 1
		morselTNs = make([]*metrics.TraceNode, len(morsels))
	}
	outs := make([][]*SlotBatch, len(morsels))
	workerGroups := make([]int64, w)
	err := runWorkers(ctx, w, len(morsels), func(wi, mi int, wctx *Context) error {
		src, err := newCSIBatchSource(wctx, scan, &morsels[mi])
		if err != nil {
			return err
		}
		if morselTNs != nil {
			morselTNs[mi] = &metrics.TraceNode{}
			src.tn = morselTNs[mi]
			src.timed = true
		}
		slots := scanSlots(scan, src)
		st := c.newProbeState(true)
		m := wctx.Tr.Model
		for {
			b, ok := src.next()
			if !ok {
				break
			}
			wctx.Tr.ChargeParallelCPU(vclock.CPU(int64(b.Len()), m.RowCPU/4), 1.0)
			sb := SlotBatch{B: b, Slots: slots}
			if out := c.probeOne(wctx.Tr, &sb, st); out != nil {
				outs[mi] = append(outs[mi], out)
			}
		}
		workerGroups[wi] += int64(src.sc.GroupsScanned)
		return nil
	})
	if err != nil {
		return err
	}
	annotate(stn, morselTNs, w, workerGroups)
	for _, o := range outs {
		c.gathered = append(c.gathered, o...)
	}
	return nil
}
