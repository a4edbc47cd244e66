package storage

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// projKinds is a read-table shape: a unique id, a low-NDV lane, a
// low-NDV tag, nullable qualities, a packed SEQUENCE and a flag.
func projKinds() []sqltypes.Kind {
	return []sqltypes.Kind{
		sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindString,
		sqltypes.KindString, sqltypes.KindBytes, sqltypes.KindBool,
	}
}

// projRow generates row i. repetitive rows favor the columnar format
// (dictionary/RLE codes); otherwise unique strings under long shared
// prefixes favor the prefix-compressed PAGE format.
func projRow(t *testing.T, i int, repetitive bool) sqltypes.Row {
	bases := "ACGT"
	var b strings.Builder
	for k := 0; k < 24; k++ {
		b.WriteByte(bases[(i*7+k*k+i/5)%4])
	}
	packed, err := seq.Pack(b.String())
	if err != nil {
		t.Fatal(err)
	}
	tag := fmt.Sprintf("TAG%02d", i%7)
	qual := sqltypes.NewString(fmt.Sprintf("IIIIIIIIIIHHHHHGGGG%05d", i))
	if repetitive {
		qual = sqltypes.NewString("IIIIIIIIIIHHHHH")
	}
	if !repetitive {
		tag = fmt.Sprintf("chr1:genomic-window-%06d", i)
	}
	if i%5 == 0 {
		qual = sqltypes.Null
	}
	return sqltypes.Row{
		sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i / 300)),
		sqltypes.NewString(tag), qual,
		sqltypes.NewBytes(packed.Encode()), sqltypes.NewBool(i%3 == 0),
	}
}

// TestProjectedPageDecodeMatchesFull: for every page format the heap
// writes — row pages, PAGE-compressed pages and columnar pages, each with
// a packed SEQUENCE column — decoding a page with a projection yields
// exactly the projected columns of the full decode, and counts only the
// projected columns' dictionary entries.
func TestProjectedPageDecodeMatchesFull(t *testing.T) {
	kinds := projKinds()
	projections := [][]int{{}, {2}, {4}, {0, 3}, {1, 2, 5}, {3, 4, 5}}
	seen := map[byte]bool{}
	for _, cfg := range []struct {
		comp       Compression
		repetitive bool
	}{{CompressNone, false}, {CompressPage, true}, {CompressPage, false}} {
		h, err := OpenHeap(filepath.Join(t.TempDir(), "h.dat"), kinds, cfg.comp, NewBufferPool(64))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			if err := h.Append(projRow(t, i, cfg.repetitive)); err != nil {
				t.Fatal(err)
			}
		}
		all := []int{0, 1, 2, 3, 4, 5}
		for p := int64(0); p < h.SealedPages(); p++ {
			fr, err := h.pool.Get(h.file, PageID(p+1))
			if err != nil {
				t.Fatal(err)
			}
			page := append([]byte(nil), fr.Data()...)
			h.pool.Unpin(fr, false)
			seen[page[0]] = true

			var fullStats VecScanStats
			full, n, err := h.decodePageBatch(page, all, nil, &fullStats)
			if err != nil {
				t.Fatalf("page %d full decode: %v", p, err)
			}
			// Each column's own dictionary entries, decoded alone.
			colDict := make([]int64, len(kinds))
			for c := range kinds {
				var st VecScanStats
				if _, _, err := h.decodePageBatch(page, []int{c}, nil, &st); err != nil {
					t.Fatal(err)
				}
				colDict[c] = st.DictEntriesDecoded.Load()
			}
			var sum int64
			for _, d := range colDict {
				sum += d
			}
			if got := fullStats.DictEntriesDecoded.Load(); got != sum {
				t.Fatalf("page %d (type %d): full decode counted %d dictionary entries, columns sum to %d", p, page[0], got, sum)
			}
			for _, proj := range projections {
				var st VecScanStats
				cols, m, err := h.decodePageBatch(page, proj, nil, &st)
				if err != nil {
					t.Fatalf("page %d proj %v: %v", p, proj, err)
				}
				if m != n || len(cols) != len(proj) {
					t.Fatalf("page %d proj %v: %d rows x %d cols, want %d x %d", p, proj, m, len(cols), n, len(proj))
				}
				var want int64
				for o, c := range proj {
					want += colDict[c]
					for r := 0; r < n; r++ {
						assertSameCell(t, cols[o], full[c], r, fmt.Sprintf("page %d (type %d) proj %v col %d row %d", p, page[0], proj, c, r))
					}
				}
				if got := st.DictEntriesDecoded.Load(); got != want {
					t.Fatalf("page %d (type %d) proj %v: %d dictionary entries decoded, want %d", p, page[0], proj, got, want)
				}
			}
		}
	}
	for _, typ := range []byte{pageTypeRows, pageTypeCompressed, pageTypeColumnar} {
		if !seen[typ] {
			t.Errorf("no sealed page of type %d was written; the test data no longer covers it", typ)
		}
	}
}

func assertSameCell(t *testing.T, got, want *vec.Vector, r int, what string) {
	t.Helper()
	g, err := got.Value(r)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	w, err := want.Value(r)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if g.IsNull() != w.IsNull() || (!g.IsNull() && sqltypes.Compare(g, w) != 0) {
		t.Fatalf("%s: projected %v, full %v", what, g, w)
	}
}

// TestColumnarBatchSkipsUnprojectedColumns: a projected columnar decode
// builds no vector, dictionary or null bitmap for skipped columns, and
// still rejects a truncated payload inside a skipped column.
func TestColumnarBatchSkipsUnprojectedColumns(t *testing.T) {
	kinds := projKinds()
	var rows []sqltypes.Row
	for i := 0; i < 200; i++ {
		rows = append(rows, projRow(t, i, true))
	}
	img, err := EncodeColumnarPage(kinds, rows, 1<<20)
	if err != nil || img == nil {
		t.Fatalf("encode: %v", err)
	}
	var st VecScanStats
	cols, n, err := decodeColumnarBatch(kinds, img, []int{0}, nil, &st)
	if err != nil || n != len(rows) || len(cols) != 1 {
		t.Fatalf("decode: %d rows, %d cols, %v", n, len(cols), err)
	}
	if d := st.DictEntriesDecoded.Load(); d != 0 {
		t.Fatalf("id-only decode decoded %d dictionary entries of skipped columns", d)
	}
	// Cut the payload inside the last column: a projection that skips it
	// must still notice.
	if _, _, err := decodeColumnarBatch(kinds, img[:len(img)-3], []int{0}, nil, &st); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
}

// TestBatchIteratorDecodesDictionaryEntriesOnce: a scan decodes each
// distinct dictionary entry once, however many pages repeat it, and the
// shared decoded values read the same as a page-by-page decode.
func TestBatchIteratorDecodesDictionaryEntriesOnce(t *testing.T) {
	h, err := OpenHeap(filepath.Join(t.TempDir(), "h.dat"), projKinds(), CompressPage, NewBufferPool(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := h.Append(projRow(t, i, true)); err != nil {
			t.Fatal(err)
		}
	}
	var st VecScanStats
	it := h.NewBatchIterator(0, h.SealedPages(), false, []int{2}, &st)
	var perPage int64
	for p := int64(0); ; p++ {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		fr, err := h.pool.Get(h.file, PageID(p+1))
		if err != nil {
			t.Fatal(err)
		}
		var pst VecScanStats
		want, n, err := h.decodePageBatch(fr.Data(), []int{2}, nil, &pst)
		h.pool.Unpin(fr, false)
		if err != nil || n != b.Rows() {
			t.Fatalf("page %d: %d rows vs batch %d, %v", p, n, b.Rows(), err)
		}
		perPage += pst.DictEntriesDecoded.Load()
		for r := 0; r < n; r++ {
			assertSameCell(t, b.Cols[0], want[0], r, fmt.Sprintf("page %d row %d", p, r))
		}
	}
	// Seven distinct tags; every page repeats them.
	if got := st.DictEntriesDecoded.Load(); got == 0 || got > 7 || perPage <= 7 {
		t.Fatalf("scan decoded %d dictionary entries (page by page: %d), want 1..7 once per distinct tag", got, perPage)
	}
}
