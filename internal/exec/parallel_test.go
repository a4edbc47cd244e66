package exec

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// partitionedHeapScan builds one Source per sealed-page range of h, the
// same partitioning the engine's parallel table scans use.
func partitionedHeapScan(h *storage.Heap, parts int) []Operator {
	sealed := h.SealedPages()
	ops := make([]Operator, 0, parts)
	for i := 0; i < parts; i++ {
		lo := sealed * int64(i) / int64(parts)
		hi := sealed * int64(i+1) / int64(parts)
		includeTail := i == parts-1
		ops = append(ops, &Source{
			Label: fmt.Sprintf("pages [%d,%d)", lo, hi),
			Factory: func(*Context) (RowIterator, error) {
				return h.NewIterator(lo, hi, includeTail), nil
			},
		})
	}
	return ops
}

func rowSetKeys(rows []sqltypes.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fmt.Sprintf("%v|%v", r[0], r[1])
	}
	sort.Strings(keys)
	return keys
}

// TestGatherOrderedUnorderedSameRows scans a partitioned heap through
// both gather modes: the unordered exchange may interleave rows, but the
// multisets must match, and the ordered exchange must additionally
// preserve the partition-concatenation (insertion) order.
func TestGatherOrderedUnorderedSameRows(t *testing.T) {
	pool := storage.NewBufferPool(256)
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString}
	h, err := storage.OpenHeap(filepath.Join(t.TempDir(), "g.heap"), kinds, storage.CompressNone, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	const n = 20_000
	for i := 0; i < n; i++ {
		err := h.Append(sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("read-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if h.SealedPages() < 4 {
		t.Fatalf("only %d sealed pages", h.SealedPages())
	}

	run := func(ordered bool, parts int) []sqltypes.Row {
		t.Helper()
		g := &Gather{Children: partitionedHeapScan(h, parts), Ordered: ordered}
		rows, err := Run(&Context{DOP: parts}, g)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	for _, parts := range []int{2, 4, 8} {
		unordered := run(false, parts)
		ordered := run(true, parts)
		if len(unordered) != n || len(ordered) != n {
			t.Fatalf("parts=%d: %d unordered, %d ordered rows, want %d",
				parts, len(unordered), len(ordered), n)
		}
		uk, ok := rowSetKeys(unordered), rowSetKeys(ordered)
		for i := range uk {
			if uk[i] != ok[i] {
				t.Fatalf("parts=%d: row sets diverge at %d: %q vs %q", parts, i, uk[i], ok[i])
			}
		}
		// Ordered mode drains partitions in index order, and each
		// partition is itself in insertion order: global order results.
		for i, r := range ordered {
			if r[0].I != int64(i) {
				t.Fatalf("parts=%d: ordered gather row %d has key %d", parts, i, r[0].I)
			}
		}
	}
}

// genOp is a child that produces n rows (key base+i, a string and a
// byte payload) through one reused row and one reused byte buffer,
// overwriting both on every Next — the Operator contract allows that,
// so the exchange must copy what it forwards. With failAfter >= 0 it
// returns errBoom once that many rows are out; with n < 0 it never
// ends.
type genOp struct {
	base, n   int
	failAfter int

	i   int
	row sqltypes.Row
	buf []byte
}

var errBoom = errors.New("boom")

func newGenOp(base, n int) *genOp { return &genOp{base: base, n: n, failAfter: -1} }

func (g *genOp) Open(*Context) error {
	g.i = 0
	g.row = make(sqltypes.Row, 3)
	g.buf = make([]byte, 8)
	return nil
}

func (g *genOp) Next() (sqltypes.Row, bool, error) {
	if g.failAfter >= 0 && g.i == g.failAfter {
		return nil, false, errBoom
	}
	if g.n >= 0 && g.i >= g.n {
		// Scribble over the last returned row: nothing gathered may
		// still point at it.
		g.row[0] = sqltypes.NewInt(-1)
		for j := range g.buf {
			g.buf[j] = 0xFF
		}
		return nil, false, nil
	}
	k := g.base + g.i
	g.i++
	for j := range g.buf {
		g.buf[j] = byte(k)
	}
	g.row[0] = sqltypes.NewInt(int64(k))
	g.row[1] = sqltypes.NewString(fmt.Sprintf("r%d", k))
	g.row[2] = sqltypes.Value{K: sqltypes.KindBytes, B: g.buf}
	return g.row, true, nil
}

func (g *genOp) Close() error { return nil }

// checkGenRow verifies a gathered row still holds generator row k.
func checkGenRow(t *testing.T, r sqltypes.Row, k int64) {
	t.Helper()
	if r[0].I != k || r[1].S != fmt.Sprintf("r%d", k) || len(r[2].B) != 8 {
		t.Fatalf("row %d corrupted: %v", k, r)
	}
	for _, b := range r[2].B {
		if b != byte(k) {
			t.Fatalf("row %d: byte payload corrupted: %v", k, r[2].B)
		}
	}
}

// drainAll opens, drains (retaining rows without cloning — Gather rows
// are never reused) and closes g, returning the rows and Next's error.
func drainAll(t *testing.T, g *Gather) ([]sqltypes.Row, error) {
	t.Helper()
	if err := g.Open(&Context{DOP: len(g.Children)}); err != nil {
		t.Fatal(err)
	}
	var rows []sqltypes.Row
	var err error
	for {
		var row sqltypes.Row
		var ok bool
		row, ok, err = g.Next()
		if err != nil || !ok {
			break
		}
		rows = append(rows, row)
	}
	if cerr := g.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return rows, err
}

// TestGatherSlabBoundaries gathers children of sizes around the slab
// size in both modes: every row arrives exactly once and intact, the
// ordered mode keeps child order, and the retained rows survive their
// producers overwriting their buffers.
func TestGatherSlabBoundaries(t *testing.T) {
	const children = 3
	for _, n := range []int{0, 1, gatherSlab - 1, gatherSlab, gatherSlab + 1, 1000} {
		for _, ordered := range []bool{false, true} {
			t.Run(fmt.Sprintf("rows=%d/ordered=%v", n, ordered), func(t *testing.T) {
				g := &Gather{Ordered: ordered}
				for c := 0; c < children; c++ {
					g.Children = append(g.Children, newGenOp(c*10_000, n))
				}
				rows, err := drainAll(t, g)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != children*n {
					t.Fatalf("%d rows, want %d", len(rows), children*n)
				}
				keys := make([]int, len(rows))
				for i, r := range rows {
					keys[i] = int(r[0].I)
					checkGenRow(t, r, r[0].I)
				}
				if !ordered {
					sort.Ints(keys)
				}
				i := 0
				for c := 0; c < children; c++ {
					for k := 0; k < n; k++ {
						if keys[i] != c*10_000+k {
							t.Fatalf("position %d holds key %d, want %d", i, keys[i], c*10_000+k)
						}
						i++
					}
				}
			})
		}
	}
}

// TestGatherErrorAfterPartialSlab: a child that fails after a full slab
// plus a partial one delivers those rows, then the error, from Next.
func TestGatherErrorAfterPartialSlab(t *testing.T) {
	const before = gatherSlab + 44
	for _, ordered := range []bool{false, true} {
		failing := newGenOp(0, -1)
		failing.failAfter = before
		rows, err := drainAll(t, &Gather{Children: []Operator{failing}, Ordered: ordered})
		if !errors.Is(err, errBoom) {
			t.Fatalf("ordered=%v: Next error = %v, want %v", ordered, err, errBoom)
		}
		if len(rows) != before {
			t.Fatalf("ordered=%v: %d rows before the error, want %d", ordered, len(rows), before)
		}
		for i, r := range rows {
			checkGenRow(t, r, int64(i))
		}
	}
}

// TestGatherCloseUnblocksProducers: closing a gather whose producers are
// blocked on full channels stops every producer goroutine.
func TestGatherCloseUnblocksProducers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, ordered := range []bool{false, true} {
		g := &Gather{Ordered: ordered}
		for c := 0; c < 4; c++ {
			g.Children = append(g.Children, newGenOp(c, -1))
		}
		if err := g.Open(&Context{DOP: 4}); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := g.Next(); !ok || err != nil {
			t.Fatalf("ordered=%v: first Next = %v, %v", ordered, ok, err)
		}
		time.Sleep(10 * time.Millisecond) // let the producers fill the buffers
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base)
}

// waitGoroutines waits for the goroutine count to settle back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want <= %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkGather moves rows of five columns from two producers through
// the exchange.
func BenchmarkGather(b *testing.B) {
	const perChild = 100_000
	row := sqltypes.Row{
		sqltypes.NewInt(7),
		sqltypes.NewString("ACGTACGTACGTACGTACGTA"),
		sqltypes.NewFloat(0.5),
		sqltypes.NewString("chr1"),
		sqltypes.NewInt(1_000_000),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := &Gather{Children: []Operator{&repeatOp{row: row, n: perChild}, &repeatOp{row: row, n: perChild}}}
		if err := g.Open(&Context{DOP: 2}); err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, ok, err := g.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		g.Close()
		if n != 2*perChild {
			b.Fatalf("%d rows gathered, want %d", n, 2*perChild)
		}
	}
	b.ReportMetric(float64(2*perChild*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// repeatOp returns the same row n times.
type repeatOp struct {
	row sqltypes.Row
	n   int
	i   int
}

func (r *repeatOp) Open(*Context) error { r.i = 0; return nil }

func (r *repeatOp) Next() (sqltypes.Row, bool, error) {
	if r.i >= r.n {
		return nil, false, nil
	}
	r.i++
	return r.row, true, nil
}

func (r *repeatOp) Close() error { return nil }
