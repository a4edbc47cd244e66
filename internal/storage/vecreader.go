package storage

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// VecScanStats counts vectorized-scan work. ValuesDecoded is the number
// of individual cell values materialized while building batches — for a
// dictionary- or RLE-encoded column only the per-page dictionary entries
// are ever decoded (counted separately in DictEntriesDecoded), so a
// filter over such a column decodes O(distinct values) per page no
// matter how many rows it drops. The row path decodes every cell of
// every row before the predicate runs.
type VecScanStats struct {
	Batches            atomic.Int64
	Rows               atomic.Int64
	ValuesDecoded      atomic.Int64
	DictEntriesDecoded atomic.Int64
	// ZoneSkippedPages counts sealed pages a scan skipped entirely
	// because their zone-map range could not satisfy the predicate.
	ZoneSkippedPages atomic.Int64
}

// VecScanSnapshot is a point-in-time copy of VecScanStats.
type VecScanSnapshot struct {
	Batches            int64
	Rows               int64
	ValuesDecoded      int64
	DictEntriesDecoded int64
	ZoneSkippedPages   int64
}

// Snapshot returns the current counter values.
func (s *VecScanStats) Snapshot() VecScanSnapshot {
	return VecScanSnapshot{
		Batches:            s.Batches.Load(),
		Rows:               s.Rows.Load(),
		ValuesDecoded:      s.ValuesDecoded.Load(),
		DictEntriesDecoded: s.DictEntriesDecoded.Load(),
		ZoneSkippedPages:   s.ZoneSkippedPages.Load(),
	}
}

// Sub returns s - o, counter-wise.
func (s VecScanSnapshot) Sub(o VecScanSnapshot) VecScanSnapshot {
	return VecScanSnapshot{
		Batches:            s.Batches - o.Batches,
		Rows:               s.Rows - o.Rows,
		ValuesDecoded:      s.ValuesDecoded - o.ValuesDecoded,
		DictEntriesDecoded: s.DictEntriesDecoded - o.DictEntriesDecoded,
		ZoneSkippedPages:   s.ZoneSkippedPages - o.ZoneSkippedPages,
	}
}

var discardVecStats VecScanStats

// dictCache reuses decoded dictionary entries across the pages of one
// scan. Low-NDV columns (DGE tags, lane and flowcell ids) repeat the same
// entries on every page, so each distinct image decodes once per scan
// rather than once per page, and every page's dictionary shares the
// decoded values. Entries are keyed by cell image per batch column; the
// cached images are bounded by dictCacheBytes, past which entries still
// decode but are no longer remembered. A nil cache decodes every entry.
type dictCache struct {
	cols  []map[string]sqltypes.Value
	bytes int
}

// dictCacheBytes bounds the images one scan's cache holds: ample for the
// low-NDV columns it serves, negligible beside the buffer pool.
const dictCacheBytes = 256 << 10

func newDictCache(nCols int) *dictCache {
	return &dictCache{cols: make([]map[string]sqltypes.Value, nCols)}
}

// value returns the decoded entry for batch column o, reporting whether
// it had to be decoded.
func (c *dictCache) value(o int, kind sqltypes.Kind, img []byte) (sqltypes.Value, bool, error) {
	if c != nil {
		if v, ok := c.cols[o][string(img)]; ok {
			return v, false, nil
		}
	}
	v, err := cellFromImage(kind, img)
	if err != nil {
		return v, false, err
	}
	if c != nil && c.bytes+len(img) <= dictCacheBytes {
		if c.cols[o] == nil {
			c.cols[o] = map[string]sqltypes.Value{}
		}
		c.cols[o][string(img)] = v
		c.bytes += len(img)
	}
	return v, true, nil
}

// decodePageBatch materializes the projected columns of one sealed page
// as vectors (batch column i holds table column proj[i]), preserving
// on-page dictionary/RLE coding as dictionary vectors. Columns outside
// the projection are walked past without being materialized. cache may
// be nil.
func (h *Heap) decodePageBatch(page []byte, proj []int, cache *dictCache, stats *VecScanStats) ([]*vec.Vector, int, error) {
	n := int(binaryLittleUint16(page[2:]))
	used := int(binaryLittleUint16(page[4:]))
	payload := page[heapHeaderSize : heapHeaderSize+used]
	switch page[0] {
	case pageTypeRows:
		// The row codec decodes whole rows; only the transposition is
		// narrowed.
		rows := make([]sqltypes.Row, 0, n)
		rows, err := h.decodePage(page, rows)
		if err != nil {
			return nil, 0, err
		}
		cols := rowsToVectors(h.kinds, rows, proj)
		stats.ValuesDecoded.Add(int64(len(rows) * len(h.kinds)))
		return cols, len(rows), nil
	case pageTypeCompressed:
		return decodeCompressedBatch(h.kinds, payload, proj, cache, stats)
	case pageTypeColumnar:
		return decodeColumnarBatch(h.kinds, payload, proj, cache, stats)
	}
	return nil, 0, fmt.Errorf("storage: unknown heap page type %d", page[0])
}

func binaryLittleUint16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}

// rowsToVectors transposes the projected columns of decoded rows into
// typed flat vectors.
func rowsToVectors(kinds []sqltypes.Kind, rows []sqltypes.Row, proj []int) []*vec.Vector {
	cols := make([]*vec.Vector, len(proj))
	for o, c := range proj {
		v := vec.NewVector(kinds[c], len(rows))
		for _, row := range rows {
			v.Append(row[c])
		}
		cols[o] = v
	}
	return cols
}

// projSlots inverts a projection: slot[c] is the batch position of table
// column c, or -1 when the scan does not project it. Projections must
// name valid, distinct columns.
func projSlots(nCols int, proj []int) ([]int, error) {
	slot := make([]int, nCols)
	for c := range slot {
		slot[c] = -1
	}
	for o, c := range proj {
		if c < 0 || c >= nCols || slot[c] >= 0 {
			return nil, fmt.Errorf("storage: bad projection column %d of %d", c, nCols)
		}
		slot[c] = o
	}
	return slot, nil
}

// decodeCompressedBatch converts the projected columns of a
// page-compressed (type 2) payload into dictionary vectors without
// materializing dropped rows: page-dictionary entries decode at most once
// per column, inline cells are appended to the column dictionary as
// singleton entries. The format is row-major, so every cell is walked,
// but cells of unprojected columns are never decoded.
func decodeCompressedBatch(kinds []sqltypes.Kind, buf []byte, proj []int, cache *dictCache, stats *VecScanStats) ([]*vec.Vector, int, error) {
	rd := pageReader{buf: buf}
	nCols := int(rd.uvarint())
	nRows := int(rd.uvarint())
	if rd.failed || nCols != len(kinds) {
		return nil, 0, fmt.Errorf("storage: page has %d columns, schema has %d", nCols, len(kinds))
	}
	slot, err := projSlots(nCols, proj)
	if err != nil {
		return nil, 0, err
	}
	prefixes := make([][]byte, nCols)
	for c := 0; c < nCols; c++ {
		prefixes[c] = rd.bytes(int(rd.uvarint()))
	}
	nDict := int(rd.uvarint())
	if rd.failed {
		return nil, 0, rd.err()
	}
	pageDict := make([][]byte, nDict)
	for i := range pageDict {
		pageDict[i] = rd.bytes(int(rd.uvarint()))
	}
	cols := make([]*vec.Vector, len(proj))
	// dictMap[o][i] is the column-dictionary code of page-dict entry i in
	// batch column o, or -1 while undecoded.
	dictMap := make([][]int32, len(proj))
	for o, c := range proj {
		cols[o] = &vec.Vector{Kind: kinds[c], Codes: make([]int32, nRows)}
		dictMap[o] = make([]int32, nDict)
		for i := range dictMap[o] {
			dictMap[o][i] = -1
		}
	}
	nb := (nCols + 7) / 8
	var scratch []byte
	var dictDecoded, valuesDecoded int64
	for r := 0; r < nRows; r++ {
		nullBM := rd.bytes(nb)
		dictBM := rd.bytes(nb)
		if rd.failed {
			return nil, 0, rd.err()
		}
		for c := 0; c < nCols; c++ {
			o := slot[c]
			if nullBM[c/8]&(1<<uint(c%8)) != 0 {
				if o >= 0 {
					cols[o].SetNull(r)
				}
				continue
			}
			var sfx []byte
			fromDict := dictBM[c/8]&(1<<uint(c%8)) != 0
			var dictRef int
			if fromDict {
				dictRef = int(rd.uvarint())
				if rd.failed || dictRef >= nDict {
					return nil, 0, fmt.Errorf("storage: dictionary index out of range")
				}
				if o < 0 {
					continue
				}
				if code := dictMap[o][dictRef]; code >= 0 {
					cols[o].Codes[r] = code
					continue
				}
				sfx = pageDict[dictRef]
			} else {
				switch kinds[c] {
				case sqltypes.KindInt:
					sfx = rd.varintBytes()
				case sqltypes.KindFloat:
					sfx = rd.bytes(8)
				case sqltypes.KindBool:
					sfx = rd.bytes(1)
				default:
					sfx = rd.bytes(int(rd.uvarint()))
				}
				if rd.failed {
					return nil, 0, rd.err()
				}
				if o < 0 {
					continue
				}
			}
			img := sfx
			if len(prefixes[c]) > 0 {
				scratch = append(scratch[:0], prefixes[c]...)
				scratch = append(scratch, sfx...)
				img = scratch
			}
			var v sqltypes.Value
			if fromDict {
				var decoded bool
				v, decoded, err = cache.value(o, kinds[c], img)
				if decoded {
					dictDecoded++
				}
			} else {
				v, err = cellFromImage(kinds[c], img)
				valuesDecoded++
			}
			if err != nil {
				return nil, 0, err
			}
			col := cols[o]
			code := int32(len(col.Dict))
			col.Dict = append(col.Dict, v)
			col.Codes[r] = code
			if fromDict {
				dictMap[o][dictRef] = code
			}
		}
	}
	stats.DictEntriesDecoded.Add(dictDecoded)
	stats.ValuesDecoded.Add(valuesDecoded)
	return cols, nRows, nil
}

// decodeColumnarBatch converts the projected columns of a columnar
// (type 3) payload into vectors: dict/RLE columns keep their codes, flat
// columns stay LAZY — the vector holds raw cell images and decodes one
// only when the executor actually reads it, so rows the selection vector
// drops cost nothing past the structural walk. Unprojected columns are
// skipped: no dictionary decode, no null bitmap, no vector. The payload
// is copied once up front because lazy images outlive the page pin.
func decodeColumnarBatch(kinds []sqltypes.Kind, buf []byte, proj []int, cache *dictCache, stats *VecScanStats) ([]*vec.Vector, int, error) {
	buf = append([]byte(nil), buf...)
	cr, err := newColumnarReader(buf, len(kinds))
	if err != nil {
		return nil, 0, err
	}
	slot, err := projSlots(cr.nCols, proj)
	if err != nil {
		return nil, 0, err
	}
	cols := make([]*vec.Vector, len(proj))
	for c := 0; c < cr.nCols; c++ {
		cr.kind = kinds[c]
		o := slot[c]
		if o < 0 {
			if err := cr.skipColumn(); err != nil {
				return nil, 0, err
			}
			continue
		}
		_, nulls, dict, codes, flat, err := cr.column()
		if err != nil {
			return nil, 0, err
		}
		var col *vec.Vector
		if codes != nil {
			vals := make([]sqltypes.Value, len(dict))
			var decoded int64
			for i, img := range dict {
				v, miss, err := cache.value(o, kinds[c], img)
				if err != nil {
					return nil, 0, err
				}
				if miss {
					decoded++
				}
				vals[i] = v
			}
			stats.DictEntriesDecoded.Add(decoded)
			col = &vec.Vector{Kind: kinds[c], Codes: codes, Dict: vals}
		} else {
			kind := kinds[c]
			col = &vec.Vector{
				Kind:      kind,
				Imgs:      flat,
				DecodeImg: func(img []byte) (sqltypes.Value, error) { return cellFromImage(kind, img) },
				Decodes:   &stats.ValuesDecoded,
			}
		}
		if nulls != nil {
			for r := 0; r < cr.nRows; r++ {
				if nulls[r/8]&(1<<uint(r%8)) != 0 {
					col.SetNull(r)
				}
			}
		}
		cols[o] = col
	}
	return cols, cr.nRows, nil
}

// HeapBatchIterator scans sealed pages [loPage, hiPage) batch-at-a-time,
// one page per batch, optionally followed by a snapshot of the in-memory
// tail — the vectorized counterpart of HeapVersionIterator. Batches hold
// only the projected columns. Each batch's Base is the global row index
// of its first physical row, the coordinate MVCC visibility ranges are
// expressed in.
type HeapBatchIterator struct {
	h      *Heap
	proj   []int
	dicts  *dictCache
	page   int64
	hiPage int64
	cum    []int64
	tail   []sqltypes.Row
	tailAt int64
	tailOn bool
	stats  *VecScanStats
	zf     []ZoneFilter
	tally  *PoolTally
}

// SetPoolTally attributes the iterator's buffer-pool traffic to tally
// (nil is valid). Returns the iterator for chaining.
func (it *HeapBatchIterator) SetPoolTally(t *PoolTally) *HeapBatchIterator {
	it.tally = t
	return it
}

// NewBatchIterator returns a batch iterator over sealed pages
// [loPage, hiPage) whose batches hold the table columns listed in proj,
// in that order. With extend=true the upper bound and the tail are
// captured atomically at call time instead (hiPage is ignored), covering
// every row physically present at creation. stats may be nil.
func (h *Heap) NewBatchIterator(loPage, hiPage int64, extend bool, proj []int, stats *VecScanStats) *HeapBatchIterator {
	if stats == nil {
		stats = &discardVecStats
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	it := &HeapBatchIterator{h: h, proj: proj, dicts: newDictCache(len(proj)),
		page: loPage, hiPage: hiPage, cum: h.pageCum, stats: stats}
	if extend {
		it.hiPage = int64(len(h.pageRows))
		it.tail = make([]sqltypes.Row, len(h.tailRows))
		copy(it.tail, h.tailRows)
		it.tailAt = h.rowCount - int64(len(h.tailRows))
		it.tailOn = true
	}
	if it.page > it.hiPage {
		it.page = it.hiPage
	}
	return it
}

// SetZoneFilters makes the iterator skip sealed pages whose zone-map
// range cannot satisfy the filters (conservative: pages without entries
// are read). Returns the iterator for chaining.
func (it *HeapBatchIterator) SetZoneFilters(fs []ZoneFilter) *HeapBatchIterator {
	it.zf = fs
	return it
}

// NextBatch returns the next batch, or (nil, nil) at end of stream. The
// batch is freshly allocated and owned by the caller.
func (it *HeapBatchIterator) NextBatch() (*vec.Batch, error) {
	for it.page < it.hiPage {
		if len(it.zf) > 0 && it.h.ZoneSkip(it.page, it.zf) {
			it.stats.ZoneSkippedPages.Add(1)
			it.page++
			continue
		}
		fr, err := it.h.pool.GetT(it.h.file, PageID(it.page+1), it.tally)
		if err != nil {
			return nil, err
		}
		cols, n, err := it.h.decodePageBatch(fr.Data(), it.proj, it.dicts, it.stats)
		it.h.pool.Unpin(fr, false)
		if err != nil {
			return nil, err
		}
		base := it.cum[it.page]
		it.page++
		if n == 0 {
			continue
		}
		b := vec.NewBatch(cols, n)
		b.Base = base
		it.stats.Batches.Add(1)
		it.stats.Rows.Add(int64(n))
		return b, nil
	}
	if it.tailOn {
		it.tailOn = false
		rows := it.tail
		it.tail = nil
		if len(rows) > 0 {
			cols := rowsToVectors(it.h.kinds, rows, it.proj)
			it.stats.ValuesDecoded.Add(int64(len(rows) * len(it.proj)))
			b := vec.NewBatch(cols, len(rows))
			b.Base = it.tailAt
			it.stats.Batches.Add(1)
			it.stats.Rows.Add(int64(len(rows)))
			return b, nil
		}
	}
	return nil, nil
}

// Close satisfies the iterator contract.
func (it *HeapBatchIterator) Close() error { return nil }
