// Package table binds a logical table to its physical designs: exactly
// one primary structure (heap, clustered B+ tree, or primary
// columnstore) plus any number of secondary indexes (B+ tree or one
// secondary columnstore), mirroring the SQL Server design space the
// paper explores (Section 2). DML routes through every structure with
// the update semantics the paper measures: in-place for B+ trees,
// delta-store inserts and delete-bitmap/delete-buffer deletes for
// columnstores.
package table

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"sync"

	"hybriddb/internal/btree"
	"hybriddb/internal/colstore"
	"hybriddb/internal/heap"
	"hybriddb/internal/metrics"
	"hybriddb/internal/stats"
	"hybriddb/internal/storage"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

var mHistogramBuilds = metrics.NewCounter("hybriddb_table_histogram_builds_total", "column histograms built from a block sample")

// PrimaryKind identifies the table's primary structure.
type PrimaryKind int

// Primary structure kinds.
const (
	PrimaryHeap PrimaryKind = iota
	PrimaryBTree
	PrimaryColumnstore
)

func (k PrimaryKind) String() string {
	switch k {
	case PrimaryHeap:
		return "heap"
	case PrimaryBTree:
		return "clustered b+tree"
	default:
		return "clustered columnstore"
	}
}

// Secondary is a secondary index: either a B+ tree (Keys + Include) or
// a secondary columnstore over all columns. Hypothetical secondaries
// exist only as metadata for what-if costing (Section 4.2).
type Secondary struct {
	Name        string
	Columnstore bool
	Keys        []int // B+ tree key ordinals
	Include     []int // B+ tree included ordinals
	Tree        *btree.Tree
	CSI         *colstore.Index

	// SortColumns is a sorted-columnstore's global build order (the
	// Section 4.5 extension); nil for ordinary columnstores.
	SortColumns []int

	Hypothetical bool
	// Metadata for hypothetical (and materialized) costing:
	EstRows  int64
	EstBytes int64
	ColBytes []int64 // per-column compressed sizes (columnstore only)
}

// Table is a logical table plus its physical designs.
type Table struct {
	Name   string
	Schema *value.Schema
	// ClusterKeys are the ordinals the clustered B+ tree is keyed on
	// (duplicates allowed; a hidden row UID breaks ties). Empty means
	// the clustered index, if any, is keyed on the UID alone.
	ClusterKeys []int

	store *storage.Store

	primary PrimaryKind
	heap    *heap.File
	heapLoc map[int64]heap.RowID // uid -> heap position
	tree    *btree.Tree          // clustered: key = ClusterKeys + uid, payload = row
	cci     *colstore.Index      // schema + hidden uid column

	Secondaries []*Secondary

	rowGroupSize int
	nextUID      int64
	rowCount     int64

	// statsMu guards the lazily built histogram cache: concurrent
	// read-only queries (which hold only the engine's shared lock) may
	// both trigger a build for the same column. Writes drop the entries
	// a rebuild could build differently (see dropHistograms).
	statsMu    sync.Mutex
	histograms map[int]*stats.Histogram
}

// New creates an empty table with a heap primary.
func New(store *storage.Store, name string, schema *value.Schema, clusterKeys []int) *Table {
	t := &Table{
		Name:        name,
		Schema:      schema,
		ClusterKeys: clusterKeys,
		store:       store,
		primary:     PrimaryHeap,
		heap:        heap.New(store, schema),
		heapLoc:     make(map[int64]heap.RowID),
		histograms:  make(map[int]*stats.Histogram),
	}
	return t
}

// SetRowGroupSize overrides the rowgroup size used by columnstore
// indexes built on this table (0 = colstore default). Must be called
// before building columnstores.
func (t *Table) SetRowGroupSize(n int) { t.rowGroupSize = n }

// Store returns the table's storage.
func (t *Table) Store() *storage.Store { return t.store }

// Primary returns the primary structure kind.
func (t *Table) Primary() PrimaryKind { return t.primary }

// Heap returns the heap file (nil unless the primary is a heap).
func (t *Table) Heap() *heap.File { return t.heap }

// Clustered returns the clustered B+ tree (nil unless primary).
func (t *Table) Clustered() *btree.Tree { return t.tree }

// CCI returns the primary columnstore (nil unless primary). Its schema
// has one extra trailing hidden UID column.
func (t *Table) CCI() *colstore.Index { return t.cci }

// RowCount returns the number of live rows.
func (t *Table) RowCount() int64 { return t.rowCount }

// UIDColumn returns the ordinal of the hidden UID column in columnstore
// representations of this table.
func (t *Table) UIDColumn() int { return t.Schema.Len() }

// uidSchema returns the table schema extended with the hidden UID.
func (t *Table) uidSchema() *value.Schema {
	cols := append([]value.Column(nil), t.Schema.Columns...)
	cols = append(cols, value.Column{Name: "__uid", Kind: value.KindInt})
	return value.NewSchema(cols...)
}

func (t *Table) clusterKey(row value.Row, uid int64) value.Row {
	key := make(value.Row, 0, len(t.ClusterKeys)+1)
	for _, k := range t.ClusterKeys {
		key = append(key, row[k])
	}
	return append(key, value.NewInt(uid))
}

// AllRows materializes every live row with its UID via the primary
// structure (maintenance and index-build path; charged to tr if set).
func (t *Table) AllRows(tr *vclock.Tracker) ([]value.Row, []int64) {
	rows := make([]value.Row, 0, t.rowCount)
	uids := make([]int64, 0, t.rowCount)
	switch t.primary {
	case PrimaryHeap:
		t.heap.Scan(tr, func(_ heap.RowID, row value.Row) bool {
			rows = append(rows, row[:t.Schema.Len()])
			uids = append(uids, row[t.Schema.Len()].Int())
			return true
		})
	case PrimaryBTree:
		for it := t.tree.First(tr); it.Valid(); it.Next() {
			rows = append(rows, it.Row())
			k := it.Key()
			uids = append(uids, k[len(k)-1].Int())
		}
	default:
		for _, row := range t.cci.ScanRows(tr, nil) {
			rows = append(rows, row[:t.Schema.Len()])
			uids = append(uids, row[t.Schema.Len()].Int())
		}
	}
	return rows, uids
}

// BulkLoad appends rows through the fast path of every structure and
// assigns UIDs. Typically used once, right after table creation.
func (t *Table) BulkLoad(tr *vclock.Tracker, rows []value.Row) {
	uids := make([]int64, len(rows))
	for i := range rows {
		t.nextUID++
		uids[i] = t.nextUID
	}
	switch t.primary {
	case PrimaryHeap:
		for i, r := range rows {
			stored := append(r.Clone(), value.NewInt(uids[i]))
			rid := t.heap.Insert(stored)
			t.heapLoc[uids[i]] = rid
		}
		if tr != nil {
			tr.ChargeParallelCPU(vclock.CPU(int64(len(rows)), tr.Model.RowCPU), 1.0)
		}
	case PrimaryBTree:
		items := make([]btree.Item, len(rows))
		for i, r := range rows {
			items[i] = btree.Item{Key: t.clusterKey(r, uids[i]), Row: r}
		}
		sortItems(items)
		if t.tree.Count() == 0 {
			t.tree.BulkLoad(tr, items)
		} else {
			for _, it := range items {
				t.tree.Insert(tr, it.Key, it.Row)
			}
		}
	default:
		t.cci.BulkInsert(tr, t.withUIDs(rows, uids))
	}
	t.rowCount += int64(len(rows))
	for _, s := range t.Secondaries {
		t.secondaryInsertBulk(tr, s, rows, uids)
	}
	t.dropHistograms(nil)
}

func (t *Table) withUIDs(rows []value.Row, uids []int64) []value.Row {
	out := make([]value.Row, len(rows))
	for i, r := range rows {
		out[i] = append(r.Clone(), value.NewInt(uids[i]))
	}
	return out
}

// sortItems orders bulk-load items by encoded key.
func sortItems(items []btree.Item) {
	enc := make([][]byte, len(items))
	idx := make([]int, len(items))
	for i, it := range items {
		enc[i] = value.EncodeKey(nil, it.Key...)
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return bytes.Compare(enc[idx[a]], enc[idx[b]]) < 0
	})
	out := make([]btree.Item, len(items))
	for i, p := range idx {
		out[i] = items[p]
	}
	copy(items, out)
}

// Insert adds a single row to every structure (trickle-insert path).
func (t *Table) Insert(tr *vclock.Tracker, row value.Row) int64 {
	t.nextUID++
	uid := t.nextUID
	switch t.primary {
	case PrimaryHeap:
		stored := append(row.Clone(), value.NewInt(uid))
		rid := t.heap.Insert(stored)
		t.heapLoc[uid] = rid
		if tr != nil {
			tr.ChargeSerialCPU(vclock.CPU(1, tr.Model.RowCPU))
			tr.ChargeDataWrite(int64(row.Width()+8), 0)
		}
	case PrimaryBTree:
		t.tree.Insert(tr, t.clusterKey(row, uid), row)
	default:
		t.cci.Insert(tr, append(row.Clone(), value.NewInt(uid)))
	}
	for _, s := range t.Secondaries {
		t.secondaryInsert(tr, s, row, uid)
	}
	t.rowCount++
	t.dropHistograms(nil)
	return uid
}

// secondaryEntry builds the B+ tree entry for row in index s: the key
// is the index key columns plus the UID tiebreak; the payload is the
// included columns followed by the cluster-key columns, which act as
// the base-table locator for non-covered lookups (as in SQL Server,
// where secondary leaves carry the clustering key).
func (t *Table) secondaryEntry(s *Secondary, row value.Row, uid int64) (key, payload value.Row) {
	key = make(value.Row, 0, len(s.Keys)+1)
	for _, k := range s.Keys {
		key = append(key, row[k])
	}
	key = append(key, value.NewInt(uid))
	payload = make(value.Row, 0, len(s.Include)+len(t.ClusterKeys))
	for _, k := range s.Include {
		payload = append(payload, row[k])
	}
	for _, k := range t.ClusterKeys {
		payload = append(payload, row[k])
	}
	return key, payload
}

func (t *Table) secondaryInsert(tr *vclock.Tracker, s *Secondary, row value.Row, uid int64) {
	if s.Hypothetical {
		return
	}
	if s.Columnstore {
		s.CSI.Insert(tr, append(row.Clone(), value.NewInt(uid)))
		return
	}
	key, payload := t.secondaryEntry(s, row, uid)
	s.Tree.Insert(tr, key, payload)
}

func (t *Table) secondaryInsertBulk(tr *vclock.Tracker, s *Secondary, rows []value.Row, uids []int64) {
	if s.Hypothetical {
		return
	}
	if s.Columnstore {
		s.CSI.BulkInsert(tr, t.withUIDs(rows, uids))
		return
	}
	if s.Tree.Count() == 0 {
		items := make([]btree.Item, len(rows))
		for i, r := range rows {
			key, payload := t.secondaryEntry(s, r, uids[i])
			items[i] = btree.Item{Key: key, Row: payload}
		}
		sortItems(items)
		s.Tree.BulkLoad(tr, items)
		return
	}
	for i, r := range rows {
		t.secondaryInsert(tr, s, r, uids[i])
	}
}

// Match identifies one row targeted by a DML statement.
type Match struct {
	Row value.Row
	UID int64
}

// Delete removes the matched rows from every structure. Costs follow
// the paper's asymmetry: B+ trees pay a seek per row, a secondary CSI
// pays a cheap delete-buffer insert, and a primary CSI pays a scan to
// locate physical positions for the delete bitmap (Section 3.3).
func (t *Table) Delete(tr *vclock.Tracker, matches []Match) int64 {
	if len(matches) == 0 {
		return 0
	}
	uidSet := make(map[int64]bool, len(matches))
	for _, m := range matches {
		uidSet[m.UID] = true
	}
	switch t.primary {
	case PrimaryHeap:
		for _, m := range matches {
			if rid, ok := t.heapLoc[m.UID]; ok {
				t.heap.Delete(rid)
				delete(t.heapLoc, m.UID)
				if tr != nil {
					tr.ChargeSerialCPU(vclock.CPU(1, tr.Model.RowCPU))
					tr.ChargeDataWrite(8, 0)
				}
			}
		}
	case PrimaryBTree:
		for _, m := range matches {
			t.tree.Delete(tr, t.clusterKey(m.Row, m.UID), nil)
		}
	default:
		t.cciDeleteByUID(tr, t.cci, uidSet)
	}
	for _, s := range t.Secondaries {
		if s.Hypothetical {
			continue
		}
		if s.Columnstore {
			if s.CSI.Primary() {
				t.cciDeleteByUID(tr, s.CSI, copySet(uidSet))
			} else {
				for _, m := range matches {
					s.CSI.BufferDelete(tr, value.Row{value.NewInt(m.UID)})
				}
			}
			continue
		}
		for _, m := range matches {
			key := make(value.Row, 0, len(s.Keys)+1)
			for _, k := range s.Keys {
				key = append(key, m.Row[k])
			}
			key = append(key, value.NewInt(m.UID))
			s.Tree.Delete(tr, key, nil)
		}
	}
	t.rowCount -= int64(len(matches))
	t.dropHistograms(nil)
	return int64(len(matches))
}

func copySet(s map[int64]bool) map[int64]bool {
	out := make(map[int64]bool, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// cciDeleteByUID locates rows by UID with a scan (delta rows are
// deleted directly; compressed rows go to the delete bitmap). The scan
// is the expensive step the paper attributes to primary-columnstore
// deletes.
func (t *Table) cciDeleteByUID(tr *vclock.Tracker, x *colstore.Index, uids map[int64]bool) {
	uidCol := t.UIDColumn()
	sc := x.NewScanner(tr, colstore.ScanSpec{Cols: []int{uidCol}, PruneCol: -1})
	var locs []colstore.Locator
	var probed int64
	for sc.Next() && len(uids) > 0 {
		b := sc.Batch()
		ls := sc.Locators()
		for i := 0; i < b.Len(); i++ {
			uid := b.Cols[0].I[b.LiveIndex(i)]
			probed++
			if uids[uid] {
				locs = append(locs, ls[i])
				delete(uids, uid)
			}
		}
	}
	if tr != nil {
		// Probing each scanned row against the target set is the real
		// cost of locating rows in compressed segments (Section 3.3).
		tr.ChargeParallelCPU(vclock.CPU(probed, tr.Model.HashCPU), 1.0)
	}
	for _, l := range locs {
		x.DeleteAt(tr, l)
	}
}

// Update is one row update: Old must be the current row.
type Update struct {
	Old, New value.Row
	UID      int64
}

// Apply updates every structure. B+ trees modify in place when the key
// is unchanged; columnstores implement update as delete + insert, as
// SQL Server does (Section 2).
func (t *Table) ApplyUpdates(tr *vclock.Tracker, ups []Update) int64 {
	if len(ups) == 0 {
		return 0
	}
	// inPlace records that every row kept its position in primary
	// order: heap updates overwrite their slot, and a B+ primary keeps a
	// row whose cluster key is unchanged. A columnstore primary deletes
	// and re-inserts, so its rows move.
	inPlace := t.primary != PrimaryColumnstore
	switch t.primary {
	case PrimaryHeap:
		for _, u := range ups {
			if rid, ok := t.heapLoc[u.UID]; ok {
				t.heap.Update(rid, append(u.New.Clone(), value.NewInt(u.UID)))
				if tr != nil {
					tr.ChargeSerialCPU(vclock.CPU(1, tr.Model.RowCPU))
					tr.ChargeDataWrite(int64(u.New.Width()), 0)
				}
			}
		}
	case PrimaryBTree:
		for _, u := range ups {
			oldKey := t.clusterKey(u.Old, u.UID)
			newKey := t.clusterKey(u.New, u.UID)
			if value.CompareRows(oldKey, newKey, nil) == 0 {
				newRow := u.New
				t.tree.Modify(tr, oldKey, nil, func(value.Row) value.Row { return newRow })
			} else {
				t.tree.Delete(tr, oldKey, nil)
				t.tree.Insert(tr, newKey, u.New)
				inPlace = false
			}
		}
	default:
		uidSet := make(map[int64]bool, len(ups))
		for _, u := range ups {
			uidSet[u.UID] = true
		}
		t.cciDeleteByUID(tr, t.cci, uidSet)
		for _, u := range ups {
			t.cci.Insert(tr, append(u.New.Clone(), value.NewInt(u.UID)))
		}
	}
	for _, s := range t.Secondaries {
		if s.Hypothetical {
			continue
		}
		if s.Columnstore {
			if s.CSI.Primary() {
				uidSet := make(map[int64]bool, len(ups))
				for _, u := range ups {
					uidSet[u.UID] = true
				}
				t.cciDeleteByUID(tr, s.CSI, uidSet)
			} else {
				for _, u := range ups {
					s.CSI.BufferDelete(tr, value.Row{value.NewInt(u.UID)})
				}
			}
			for _, u := range ups {
				s.CSI.Insert(tr, append(u.New.Clone(), value.NewInt(u.UID)))
			}
			continue
		}
		for _, u := range ups {
			oldKey, _ := t.secondaryEntry(s, u.Old, u.UID)
			newKey, payload := t.secondaryEntry(s, u.New, u.UID)
			if value.CompareRows(oldKey, newKey, nil) == 0 {
				p := payload
				s.Tree.Modify(tr, oldKey, nil, func(value.Row) value.Row { return p })
			} else {
				s.Tree.Delete(tr, oldKey, nil)
				s.Tree.Insert(tr, newKey, payload)
			}
		}
	}
	if inPlace {
		t.dropHistograms(changedColumns(t.Schema.Len(), ups))
	} else {
		t.dropHistograms(nil)
	}
	return int64(len(ups))
}

// changedColumns marks the columns whose value differs bitwise between
// the old and new row of any update.
func changedColumns(ncols int, ups []Update) []bool {
	changed := make([]bool, ncols)
	for _, u := range ups {
		for c := range changed {
			if !changed[c] && !value.Identical(u.Old[c], u.New[c]) {
				changed[c] = true
			}
		}
	}
	return changed
}

// dropHistograms forgets cached histograms that a rebuild could now
// build differently. A nil changed drops them all: the write moved
// rows or changed the row count, and with it the sample's seed and
// block picks. Otherwise every row kept its position, so the sample
// picks the same rows and only the columns changed marks can differ.
func (t *Table) dropHistograms(changed []bool) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if changed == nil {
		clear(t.histograms)
		return
	}
	for c := range t.histograms {
		if changed[c] {
			delete(t.histograms, c)
		}
	}
}

// ConvertPrimary rebuilds the table's primary structure in the given
// kind. For PrimaryBTree, keys selects the cluster key ordinals.
func (t *Table) ConvertPrimary(tr *vclock.Tracker, kind PrimaryKind, keys []int) {
	rows, uids := t.AllRows(tr)
	t.heap, t.tree, t.cci = nil, nil, nil
	t.heapLoc = nil
	t.primary = kind
	switch kind {
	case PrimaryHeap:
		t.heap = heap.New(t.store, t.Schema)
		t.heapLoc = make(map[int64]heap.RowID, len(rows))
		for i, r := range rows {
			rid := t.heap.Insert(append(r.Clone(), value.NewInt(uids[i])))
			t.heapLoc[uids[i]] = rid
		}
	case PrimaryBTree:
		t.ClusterKeys = keys
		t.tree = btree.New(t.store)
		items := make([]btree.Item, len(rows))
		for i, r := range rows {
			items[i] = btree.Item{Key: t.clusterKey(r, uids[i]), Row: r}
		}
		sortItems(items)
		t.tree.BulkLoad(tr, items)
	default:
		// keys, if given, select a global build sort order (sorted
		// primary columnstore, Section 4.5).
		t.ClusterKeys = keys
		t.cci = colstore.Build(t.store, colstore.Config{
			Schema:       t.uidSchema(),
			Primary:      true,
			RowGroupSize: t.rowGroupSize,
			SortColumns:  keys,
		}, t.withUIDs(rows, uids), tr)
	}
}

// AddSecondaryBTree materializes a secondary B+ tree index.
func (t *Table) AddSecondaryBTree(tr *vclock.Tracker, name string, keys, include []int) *Secondary {
	s := &Secondary{Name: name, Keys: keys, Include: include, Tree: btree.New(t.store)}
	rows, uids := t.AllRows(tr)
	t.secondaryInsertBulk(tr, s, rows, uids)
	s.EstRows = t.rowCount
	s.EstBytes = s.Tree.Bytes()
	t.Secondaries = append(t.Secondaries, s)
	return s
}

// AddSecondaryCSI materializes the (single) secondary columnstore over
// all columns, per the paper's design choice in Section 4.3. Optional
// sortCols build it as a sorted columnstore (the Section 4.5
// extension): the compressed rowgroups are globally ordered by those
// columns, giving B+-tree-like segment elimination on them.
func (t *Table) AddSecondaryCSI(tr *vclock.Tracker, name string, sortCols ...int) *Secondary {
	for _, s := range t.Secondaries {
		if s.Columnstore && !s.Hypothetical {
			panic(fmt.Sprintf("table %s: only one columnstore index is allowed", t.Name))
		}
	}
	rows, uids := t.AllRows(tr)
	csi := colstore.Build(t.store, colstore.Config{
		Schema:       t.uidSchema(),
		KeyOrdinals:  []int{t.UIDColumn()},
		RowGroupSize: t.rowGroupSize,
		SortColumns:  sortCols,
	}, t.withUIDs(rows, uids), tr)
	s := &Secondary{Name: name, Columnstore: true, CSI: csi, SortColumns: sortCols}
	s.EstRows = t.rowCount
	s.EstBytes = csi.Bytes()
	s.ColBytes = make([]int64, t.Schema.Len())
	for c := range s.ColBytes {
		s.ColBytes[c] = csi.ColumnBytes(c)
	}
	t.Secondaries = append(t.Secondaries, s)
	return s
}

// AddHypothetical registers a metadata-only index for what-if costing.
func (t *Table) AddHypothetical(s *Secondary) {
	s.Hypothetical = true
	t.Secondaries = append(t.Secondaries, s)
}

// DropSecondary removes the named secondary index.
func (t *Table) DropSecondary(name string) bool {
	for i, s := range t.Secondaries {
		if s.Name == name {
			t.Secondaries = append(t.Secondaries[:i], t.Secondaries[i+1:]...)
			return true
		}
	}
	return false
}

// FindSecondary returns the named secondary index, or nil.
func (t *Table) FindSecondary(name string) *Secondary {
	for _, s := range t.Secondaries {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// SecondaryCSI returns the materialized secondary columnstore, or nil.
func (t *Table) SecondaryCSI() *Secondary {
	for _, s := range t.Secondaries {
		if s.Columnstore && !s.Hypothetical {
			return s
		}
	}
	return nil
}

// FetchRow fetches the base row identified by its cluster-key values
// and UID — the key-lookup step a non-covering secondary index pays
// per row. For a heap the UID resolves directly; for a clustered
// B+ tree the cluster key drives a seek; for a primary columnstore the
// row must be located by scan (which is why the optimizer avoids RID
// lookups into columnstores).
func (t *Table) FetchRow(tr *vclock.Tracker, clusterVals value.Row, uid int64) (value.Row, bool) {
	switch t.primary {
	case PrimaryHeap:
		rid, ok := t.heapLoc[uid]
		if !ok {
			return nil, false
		}
		row := t.heap.Get(tr, rid)
		if row == nil {
			return nil, false
		}
		return row[:t.Schema.Len()], true
	case PrimaryBTree:
		key := append(clusterVals.Clone(), value.NewInt(uid))
		it := t.tree.Seek(tr, key)
		if !it.Valid() || value.CompareRows(it.Key(), key, nil) != 0 {
			return nil, false
		}
		return it.Row(), true
	default:
		uidCol := t.UIDColumn()
		sc := t.cci.NewScanner(tr, colstore.ScanSpec{PruneCol: -1})
		for sc.Next() {
			b := sc.Batch()
			for i := 0; i < b.Len(); i++ {
				r := b.Row(i)
				if r[uidCol].Int() == uid {
					return r[:t.Schema.Len()], true
				}
			}
		}
		return nil, false
	}
}

// Histogram returns (building lazily from a block sample) the
// equi-depth histogram for a column.
func (t *Table) Histogram(col int) *stats.Histogram {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if h, ok := t.histograms[col]; ok {
		return h
	}
	mHistogramBuilds.Inc()
	rng := rand.New(rand.NewSource(t.rowCount*31 + int64(col)))
	sample := t.BlockSample(128, 20000, rng, true, col)
	vals := make([]value.Value, len(sample.Rows))
	for i, r := range sample.Rows {
		vals[i] = r[0]
	}
	h := stats.BuildHistogram(vals, 64, sample.Fraction)
	t.histograms[col] = h
	return h
}

// CachedHistograms returns a copy of the histogram cache, by column:
// the histograms Histogram would return without building.
func (t *Table) CachedHistograms() map[int]*stats.Histogram {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return maps.Clone(t.histograms)
}

// BlockSample draws the block sample stats.BlockSample would draw from
// AllRows with the same arguments and rng state, without materializing
// the table: it walks the primary in AllRows order, copies only the
// rows of the picked blocks, and stops after the last one. When cols
// are given, each sampled row holds just those columns, in that order,
// and a columnstore primary decodes only them. Like AllRows, the walk
// charges nothing.
func (t *Table) BlockSample(blockRows, targetRows int, rng *rand.Rand, rowShuffle bool, cols ...int) stats.Sample {
	p := stats.PickBlocks(int(t.rowCount), blockRows, targetRows, rng)
	end := p.End()
	if end == 0 {
		return p.Sample(nil, rng, rowShuffle)
	}
	if len(cols) == 0 {
		cols = make([]int, t.Schema.Len())
		for i := range cols {
			cols[i] = i
		}
	}
	w := len(cols)
	out := make([]value.Row, 0, p.Cap())
	slab := make([]value.Value, 0, p.Cap()*w)
	next := func() value.Row {
		r := slab[len(slab) : len(slab)+w : len(slab)+w]
		slab = slab[:len(slab)+w]
		out = append(out, r)
		return r
	}
	pos := 0
	switch t.primary {
	case PrimaryHeap:
		t.heap.Scan(nil, func(_ heap.RowID, row value.Row) bool {
			if p.Keep(pos) {
				r := next()
				for i, c := range cols {
					r[i] = row[c]
				}
			}
			pos++
			return pos < end
		})
	case PrimaryBTree:
		for it := t.tree.First(nil); it.Valid() && pos < end; it.Next() {
			if p.Keep(pos) {
				row, r := it.Row(), next()
				for i, c := range cols {
					r[i] = row[c]
				}
			}
			pos++
		}
	default:
		sc := t.cci.NewScanner(nil, colstore.ScanSpec{Cols: cols, PruneCol: -1})
		for pos < end && sc.Next() {
			b := sc.Batch()
			for i := 0; i < b.Len() && pos < end; i++ {
				if p.Keep(pos) {
					li, r := b.LiveIndex(i), next()
					for ci := range r {
						r[ci] = b.Cols[ci].Value(li)
					}
				}
				pos++
			}
		}
	}
	return p.Sample(out, rng, rowShuffle)
}

// PrimaryBytes returns the on-disk size of the primary structure.
func (t *Table) PrimaryBytes() int64 {
	switch t.primary {
	case PrimaryHeap:
		return t.heap.Bytes()
	case PrimaryBTree:
		return t.tree.Bytes()
	default:
		return t.cci.Bytes()
	}
}

// TupleMove runs columnstore maintenance on every columnstore in the
// table (delta compression + delete-buffer compaction).
func (t *Table) TupleMove(tr *vclock.Tracker) {
	if t.cci != nil {
		t.cci.TupleMove(tr)
	}
	for _, s := range t.Secondaries {
		if s.Columnstore && !s.Hypothetical {
			s.CSI.TupleMove(tr)
		}
	}
}
