package core

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/vec"
)

// The Database implements plan.Provider: catalog lookups, function
// resolution and physical access paths.

// Table resolves a base table definition.
func (db *Database) Table(name string) *catalog.Table { return db.cat.Get(name) }

// Scalar resolves a scalar function (built-in or registered UDF).
func (db *Database) Scalar(name string) (expr.ScalarFunc, bool) {
	return db.scalars.Lookup(name)
}

// Agg resolves an aggregate (registered UDA or built-in).
func (db *Database) Agg(name string) (exec.AggFactory, bool) {
	if f, ok := db.aggs[lower(name)]; ok {
		return f, true
	}
	if f := exec.BuiltinAggregate(name); f != nil {
		return f, true
	}
	return nil, false
}

// TVF resolves a table-valued function.
func (db *Database) TVF(name string) (plan.TVF, bool) {
	f, ok := db.tvfs[lower(name)]
	return f, ok
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// RowCountEstimate returns the current table cardinality (an estimate:
// physical rows minus known-dead ones; in-flight inserts count).
func (db *Database) RowCountEstimate(t *catalog.Table) int64 {
	td := db.tables[t.ID]
	if td == nil {
		return 0
	}
	n := td.rowCount() - td.versions.deadCount()
	if n < 0 {
		n = 0
	}
	return n
}

// statsStaleDivisor: stats are stale once the table's modification
// counter has drifted by more than rowCount/divisor since ANALYZE (with
// a floor so tiny tables don't flap between fresh and stale).
const statsStaleDivisor = 5

// Stats returns the table's ANALYZE statistics, or nil when none were
// collected or the table has been modified too much since collection —
// the cheap invalidation the planner relies on to never trust a
// distribution the data has outgrown.
func (db *Database) Stats(t *catalog.Table) *stats.TableStats {
	td := db.tables[t.ID]
	if td == nil {
		return nil
	}
	ts := db.tstats.Get(t.ID)
	if ts == nil {
		return nil
	}
	drift := td.modCount.Load() - ts.ModCount
	if drift < 0 {
		drift = -drift
	}
	limit := ts.RowCount / statsStaleDivisor
	if limit < 64 {
		limit = 64
	}
	if drift > limit {
		return nil
	}
	return ts
}

// TableStatistics returns the (non-stale) collected statistics for a
// table by name, or nil; the external mirror of the Provider method for
// tests and benchmarks.
func (db *Database) TableStatistics(name string) *stats.TableStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	def := db.cat.Get(name)
	if def == nil {
		return nil
	}
	return db.Stats(def)
}

// poolTallyFrom builds the buffer-pool attribution tally for the
// profile of the query operator the context belongs to (nil when the
// statement runs uninstrumented — pool reads then count only in the
// global pool stats).
func poolTallyFrom(ctx *exec.Context) *storage.PoolTally {
	if ctx == nil || ctx.Prof == nil {
		return nil
	}
	return &storage.PoolTally{Hits: &ctx.Prof.PoolHits, Misses: &ctx.Prof.PoolMisses}
}

// spillStore adapts the storage spill manager to the operator-layer
// contract (exec names the interfaces, storage owns the file lifecycle).
type spillStore struct{ m *storage.SpillManager }

type spillFile struct{ *storage.SpillFile }

func (s spillStore) Create() (exec.SpillFile, error) {
	f, err := s.m.Create()
	if err != nil {
		return nil, err
	}
	return spillFile{f}, nil
}

// CreateRun satisfies exec.RunStore: sorted runs and aggregate overflow
// partitions are read exactly once, so their iterators stream pages
// straight from disk instead of caching them in the buffer pool.
func (s spillStore) CreateRun() (exec.SpillFile, error) {
	f, err := s.m.CreateRun()
	if err != nil {
		return nil, err
	}
	return spillFile{f}, nil
}

func (f spillFile) Iter() (exec.RowIterator, error) { return f.NewIterator(), nil }

// SealRun and IterRun satisfy exec.MultiRunFile: the external sort packs
// every run of one operator into a single temp file.
func (f spillFile) SealRun() (exec.RunSpan, error) {
	start, end, rows, bytes, err := f.SpillFile.SealRun()
	return exec.RunSpan{Start: start, End: end, Rows: rows, Bytes: bytes}, err
}

func (f spillFile) IterRun(span exec.RunSpan) (exec.RowIterator, error) {
	return f.NewRunIterator(span.Start, span.End, span.Rows), nil
}

// SpillStore exposes temp spill files (under <dir>/tmp, read through the
// shared buffer pool) to the planner's partitioned joins.
func (db *Database) SpillStore() exec.SpillStore { return spillStore{db.spill} }

// scanProjection resolves a scan's projection: the table columns it
// emits, strictly ascending. nil selects every column.
func scanProjection(def *catalog.Table, proj []int) ([]int, error) {
	if proj == nil {
		all := make([]int, len(def.Columns))
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	for i, c := range proj {
		if c < 0 || c >= len(def.Columns) || (i > 0 && c <= proj[i-1]) {
			return nil, fmt.Errorf("core: bad projection %v of table %s", proj, def.Name)
		}
	}
	return proj, nil
}

// seqPositions lists the projection positions holding SEQUENCE columns,
// whose cells are stored packed and read as strings.
func seqPositions(def *catalog.Table, proj []int) []int {
	var out []int
	for o, c := range proj {
		if def.Columns[c].Type.Name == catalog.TypeSequence {
			out = append(out, o)
		}
	}
	return out
}

// projectIterator narrows the full rows that clustered, index and
// row-path heap scans decode to the scan's projection, and unpacks
// SEQUENCE cells to their query form. Both happen in place: every inner
// iterator hands out rows it does not keep, and an ascending projection
// only ever moves a cell to a lower position.
type projectIterator struct {
	inner exec.RowIterator
	def   *catalog.Table
	proj  []int
	seq   []int
}

func (p *projectIterator) Next() (sqltypes.Row, bool, error) {
	row, ok, err := p.inner.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	for o, c := range p.proj {
		row[o] = row[c]
	}
	row = row[:len(p.proj)]
	for _, o := range p.seq {
		v, err := p.def.FromStorageValue(p.proj[o], row[o])
		if err != nil {
			return nil, false, err
		}
		row[o] = v
	}
	return row, true, nil
}

func (p *projectIterator) Close() error { return p.inner.Close() }

// projectRows wraps a full-row storage iterator with the scan's
// projection; a full projection of a table without SEQUENCE columns
// passes the rows through.
func projectRows(def *catalog.Table, it exec.RowIterator, proj []int) exec.RowIterator {
	seq := seqPositions(def, proj)
	if len(proj) == len(def.Columns) && len(seq) == 0 {
		return it
	}
	return &projectIterator{inner: it, def: def, proj: proj, seq: seq}
}

// VectorizedScan reports whether the table's scan partitions deliver
// columnar batches: heap tables only (clustered scans are key-ordered
// row streams), unless vectorized execution is disabled.
func (db *Database) VectorizedScan(t *catalog.Table) bool {
	td := db.tables[t.ID]
	return !db.noVec && td != nil && td.heap != nil
}

// visibleHeapIterator filters an indexed heap scan down to the rows a
// snapshot may see. The visible set is rendered once at open as sorted
// disjoint index ranges; row indexes arrive in increasing order, so the
// filter is a monotonic pointer walk with early exit past the last range.
type visibleHeapIterator struct {
	it     *storage.HeapVersionIterator
	ranges []rowRange
	ri     int
}

func (v *visibleHeapIterator) Next() (sqltypes.Row, bool, error) {
	for {
		row, idx, ok, err := v.it.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		for v.ri < len(v.ranges) && idx >= v.ranges[v.ri].end {
			v.ri++
		}
		if v.ri >= len(v.ranges) {
			return nil, false, nil // nothing visible beyond this index
		}
		if idx >= v.ranges[v.ri].start {
			return row, true, nil
		}
	}
}

func (v *visibleHeapIterator) Close() error { return v.it.Close() }

// visibleBatchIterator is the vectorized heap scan source: it serves
// columnar page batches with MVCC visibility applied as a
// selection-vector intersection — invisible rows are deselected, never
// decoded. Row consumers read the same batches through exec.Source's
// batch-to-row cursor.
type visibleBatchIterator struct {
	bi      *storage.HeapBatchIterator
	ranges  []rowRange
	ri      int
	seqCols []int // batch positions of SEQUENCE columns
}

// NextBatch intersects the next page batch's selection with the visible
// ranges. Batch row s is global row Base+s; ranges are sorted and
// batches arrive in ascending Base order, so the intersection is one
// monotonic walk across the whole scan.
func (v *visibleBatchIterator) NextBatch() (*vec.Batch, error) {
	for {
		b, err := v.bi.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		sel := b.Sel[:0]
		for _, s := range b.Sel {
			idx := b.Base + int64(s)
			for v.ri < len(v.ranges) && idx >= v.ranges[v.ri].end {
				v.ri++
			}
			if v.ri >= len(v.ranges) {
				break
			}
			if idx >= v.ranges[v.ri].start {
				sel = append(sel, s)
			}
		}
		b.Sel = sel
		// SEQUENCE columns stay in packed storage form; the Packed mark
		// makes value materialization unpack them to the query
		// representation.
		for _, c := range v.seqCols {
			b.Cols[c].Packed = true
		}
		if len(b.Sel) > 0 {
			return b, nil
		}
		if v.ri >= len(v.ranges) {
			return nil, nil // nothing visible beyond this point
		}
	}
}

func (v *visibleBatchIterator) Close() error { return v.bi.Close() }

// HeapPageStats prices a zone-map-pruned scan: how many sealed pages
// survive the filters, and the total. (0, 0) means "no information" (not
// an open heap table) and the planner falls back to cardinality costing.
func (db *Database) HeapPageStats(t *catalog.Table, filters []storage.ZoneFilter) (kept, total int64) {
	td := db.tables[t.ID]
	if td == nil || td.heap == nil {
		return 0, 0
	}
	return td.heap.ZonePrunedPages(filters)
}

// ScanPartitions returns `parts` operators that together scan every
// column of the table once: heap tables partition by sealed-page ranges
// (the tail rides with the last partition); clustered tables partition
// by key range. Each partition filters rows against the snapshot in the
// exec context its factory runs under — scans read a consistent version
// of the table while writers keep appending.
func (db *Database) ScanPartitions(t *catalog.Table, parts int) ([]exec.Operator, error) {
	return db.ScanPartitionsPruned(t, parts, nil, nil)
}

// ScanPartitionsPruned is ScanPartitions with zone-map filters and a
// projection: sealed heap pages whose min/max ranges provably cannot
// satisfy every filter are skipped without a buffer-pool read (filters
// are ignored for clustered tables), and rows carry only the table
// columns listed in proj (ascending; nil = all). Vectorized heap scans
// decode only the projected columns; the other paths narrow rows after
// decoding them.
func (db *Database) ScanPartitionsPruned(t *catalog.Table, parts int, filters []storage.ZoneFilter, proj []int) ([]exec.Operator, error) {
	td := db.tables[t.ID]
	if td == nil {
		return nil, fmt.Errorf("core: no storage for table %s", t.Name)
	}
	proj, err := scanProjection(td.def, proj)
	if err != nil {
		return nil, err
	}
	if parts < 1 {
		parts = 1
	}
	if td.heap != nil {
		sealed := td.heap.SealedPages()
		if int64(parts) > sealed && sealed > 0 {
			parts = int(sealed)
		}
		if sealed == 0 {
			parts = 1
		}
		seqCols := seqPositions(td.def, proj)
		ops := make([]exec.Operator, 0, parts)
		for i := 0; i < parts; i++ {
			lo := sealed * int64(i) / int64(parts)
			hi := sealed * int64(i+1) / int64(parts)
			includeTail := i == parts-1
			// The tail partition re-captures the sealed-page count at open
			// ("extend"): pages sealed since planning stay covered, and
			// the visibility filter hides whatever the snapshot should
			// not see.
			src := &exec.Source{Label: fmt.Sprintf("%s pages [%d,%d)", t.Name, lo, hi)}
			if db.noVec {
				src.Factory = func(ctx *exec.Context) (exec.RowIterator, error) {
					snap, _ := ctx.Snapshot.(*Snapshot)
					it := td.heap.NewVersionIterator(lo, hi, includeTail).
						SetZoneFilters(filters, &db.scanStats).SetPoolTally(poolTallyFrom(ctx))
					vis := &visibleHeapIterator{it: it, ranges: td.versions.visibleRanges(snap)}
					return projectRows(td.def, vis, proj), nil
				}
			} else {
				src.BatchFactory = func(ctx *exec.Context) (exec.BatchIterator, error) {
					snap, _ := ctx.Snapshot.(*Snapshot)
					return &visibleBatchIterator{
						bi: td.heap.NewBatchIterator(lo, hi, includeTail, proj, &db.scanStats).
							SetZoneFilters(filters).SetPoolTally(poolTallyFrom(ctx)),
						ranges:  td.versions.visibleRanges(snap),
						seqCols: seqCols,
					}, nil
				}
			}
			ops = append(ops, src)
		}
		return ops, nil
	}
	// Clustered: range partitions (each ordered; ranges are contiguous so
	// an ordered gather preserves global order).
	ranges, err := db.KeyRanges(t, parts)
	if err != nil {
		return nil, err
	}
	ops := make([]exec.Operator, 0, len(ranges))
	for _, rg := range ranges {
		op, err := db.OrderedScanRange(t, rg[0], rg[1], proj)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// treeIterator adapts a btree range scan to rows, hiding keys the scan's
// snapshot cannot see. The btree iterator walks leaf pages unlatched, so
// the scan holds the table's write latch shared for its duration —
// writers to this clustered table wait for the scan, but scans never
// wait behind an open transaction (only behind individual row inserts).
type treeIterator struct {
	it     *btree.Iterator
	td     *tableData
	snap   *Snapshot
	locked bool
}

func (ti *treeIterator) Next() (sqltypes.Row, bool, error) {
	for {
		if !ti.it.Next() {
			return nil, false, ti.it.Err()
		}
		if !ti.td.versions.keyVisible(ti.it.Key(), ti.snap) {
			continue
		}
		row, _, err := ti.td.walCodec.Decode(ti.it.Value(), true)
		if err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
}

func (ti *treeIterator) Close() error {
	ti.it.Close()
	if ti.locked {
		ti.td.writeMu.RUnlock()
		ti.locked = false
	}
	return nil
}

// OrderedScanRange scans a clustered table in key order over [lo, hi) of
// the first key column, emitting the table columns listed in proj
// (ascending; nil = all).
func (db *Database) OrderedScanRange(t *catalog.Table, lo, hi *sqltypes.Value, proj []int) (exec.Operator, error) {
	td := db.tables[t.ID]
	if td == nil || td.tree == nil {
		return nil, fmt.Errorf("core: %s is not a clustered table", t.Name)
	}
	proj, err := scanProjection(td.def, proj)
	if err != nil {
		return nil, err
	}
	var startKey, endKey []byte
	if lo != nil {
		startKey, err = btree.AppendKey(nil, sqltypes.Row{*lo})
		if err != nil {
			return nil, err
		}
	}
	if hi != nil {
		endKey, err = btree.AppendKey(nil, sqltypes.Row{*hi})
		if err != nil {
			return nil, err
		}
	}
	def := td.def
	return &exec.Source{
		Label: fmt.Sprintf("%s ordered", t.Name),
		Factory: func(ctx *exec.Context) (exec.RowIterator, error) {
			var snap *Snapshot
			if ctx != nil {
				snap, _ = ctx.Snapshot.(*Snapshot)
			}
			td.writeMu.RLock()
			it, err := td.tree.Seek(startKey, endKey)
			if err != nil {
				td.writeMu.RUnlock()
				return nil, err
			}
			return projectRows(def, &treeIterator{it: it, td: td, snap: snap, locked: true}, proj), nil
		},
	}, nil
}

// KeyRanges splits the first (integer) clustered key column into up to
// `parts` contiguous ranges.
func (db *Database) KeyRanges(t *catalog.Table, parts int) ([][2]*sqltypes.Value, error) {
	td := db.tables[t.ID]
	if td == nil || td.tree == nil {
		return nil, fmt.Errorf("core: %s is not a clustered table", t.Name)
	}
	full := [][2]*sqltypes.Value{{nil, nil}}
	if parts <= 1 {
		return full, nil
	}
	minKey, ok, err := td.tree.MinKey()
	if err != nil || !ok {
		return full, err
	}
	maxKey, ok, err := td.tree.MaxKey()
	if err != nil || !ok {
		return full, err
	}
	lo, ok1 := btree.DecodeIntKeyPrefix(minKey)
	hi, ok2 := btree.DecodeIntKeyPrefix(maxKey)
	if !ok1 || !ok2 || hi-lo+1 < int64(parts) {
		return full, nil
	}
	span := hi - lo + 1
	out := make([][2]*sqltypes.Value, 0, parts)
	for i := 0; i < parts; i++ {
		var lb, ub *sqltypes.Value
		if i > 0 {
			v := sqltypes.NewInt(lo + span*int64(i)/int64(parts))
			lb = &v
		}
		if i < parts-1 {
			v := sqltypes.NewInt(lo + span*int64(i+1)/int64(parts))
			ub = &v
		}
		out = append(out, [2]*sqltypes.Value{lb, ub})
	}
	return out, nil
}
