package expr

import (
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// TestGenericMaskReadsOnlyPredicateColumns: a predicate the kernels do
// not specialize (arithmetic under a comparison) falls back to
// row-at-a-time evaluation, which must materialize only the columns the
// predicate reads — a lazily decoded column it never mentions stays
// undecoded.
func TestGenericMaskReadsOnlyPredicateColumns(t *testing.T) {
	const n = 64
	ids := vec.NewVector(sqltypes.KindInt, n)
	imgs := make([][]byte, n)
	for i := 0; i < n; i++ {
		ids.Append(i64(int64(i)))
		imgs[i] = []byte("payload-" + strconv.Itoa(i))
	}
	var decodes atomic.Int64
	lazy := &vec.Vector{
		Kind:      sqltypes.KindString,
		Imgs:      imgs,
		DecodeImg: func(img []byte) (sqltypes.Value, error) { return str(string(img)), nil },
		Decodes:   &decodes,
	}
	b := vec.NewBatch([]*vec.Vector{ids, lazy}, n)

	// (c0 % 2) = 0 keeps the even ids.
	pred := &Cmp{Op: CmpEq, L: &Arith{Op: OpMod, L: col(0), R: lit(i64(2))}, R: lit(i64(0))}
	f := CompileFilter(pred)
	if _, ok := f.root.(*genericMask); !ok {
		t.Fatalf("predicate compiled to %T, want the generic fallback", f.root)
	}
	if err := f.Apply(b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != n/2 {
		t.Fatalf("%d rows selected, want %d", b.Len(), n/2)
	}
	for _, s := range b.Sel {
		if s%2 != 0 {
			t.Fatalf("odd row %d selected", s)
		}
	}
	if got := decodes.Load(); got != 0 {
		t.Fatalf("filter decoded %d cells of a column it never reads", got)
	}
}
