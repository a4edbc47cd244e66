package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqltypes"
)

// drainOp runs a serial operator to completion.
func drainOp(t *testing.T, db *Database, op exec.Operator) []sqltypes.Row {
	t.Helper()
	snap := db.tm.readSnapshot()
	defer db.tm.releaseSnapshot(snap)
	rows, err := exec.Run(db.execContext(snap), op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestCreateIndexBuildAndScan: bulk build over existing rows, maintenance
// of later inserts, and point/range IndexScan correctness across reopen.
func TestCreateIndexBuildAndScan(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE g (id INT, pos INT, tag VARCHAR(16))`)
	for i := 0; i < 5000; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO g VALUES (%d, %d, 'tag%d')`, i, (i*7919)%5000, i%10))
	}
	mustExec(t, db, `CREATE INDEX idx_pos ON g(pos)`)

	// Rows inserted AFTER the build must be maintained transactionally.
	mustExec(t, db, `INSERT INTO g VALUES (5000, 123, 'late')`)

	def := db.Catalog().Get("g")
	if def.IndexByName("idx_pos") == nil {
		t.Fatal("catalog lost the index")
	}
	lo, hi := sqltypes.NewInt(100), sqltypes.NewInt(200)
	db.mu.RLock()
	op, err := db.IndexScan(def, "idx_pos", plan.IndexRange{Lo: &lo, Hi: &hi, LoInc: true}, nil)
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	rows := drainOp(t, db, op)
	want := 0
	for i := 0; i < 5000; i++ {
		if p := (i * 7919) % 5000; p >= 100 && p < 200 {
			want++
		}
	}
	want++ // the late row at pos=123
	if len(rows) != want {
		t.Fatalf("index range scan returned %d rows, want %d", len(rows), want)
	}
	// Index order: ascending pos.
	for i := 1; i < len(rows); i++ {
		if sqltypes.Compare(rows[i-1][1], rows[i][1]) > 0 {
			t.Fatalf("index scan out of order at %d: %v > %v", i, rows[i-1][1], rows[i][1])
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the index file and catalog entry survive; scans still agree.
	db, err = Open(dir, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	def = db.Catalog().Get("g")
	db.mu.RLock()
	op, err = db.IndexScan(def, "idx_pos", plan.IndexRange{Lo: &lo, Hi: &hi, LoInc: true}, nil)
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drainOp(t, db, op)); got != want {
		t.Fatalf("after reopen: %d rows, want %d", got, want)
	}
	// DROP INDEX removes catalog entry and file.
	mustExec(t, db, `DROP INDEX idx_pos ON g`)
	if db.Catalog().Get("g").IndexByName("idx_pos") != nil {
		t.Fatal("catalog kept the dropped index")
	}
	db.mu.RLock()
	_, err = db.IndexScan(def, "idx_pos", plan.IndexRange{Lo: &lo, Hi: &hi, LoInc: true}, nil)
	db.mu.RUnlock()
	if err == nil {
		t.Fatal("IndexScan over a dropped index succeeded")
	}
}

// TestIndexRollbackUndo: entries of rolled-back inserts never surface, and
// an aborted transaction does not wedge later index scans.
func TestIndexRollbackUndo(t *testing.T) {
	db, err := Open(t.TempDir(), Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE r (v INT)`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO r VALUES (%d)`, i))
	}
	mustExec(t, db, `CREATE INDEX idx_v ON r(v)`)
	s := db.NewSession()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO r VALUES (42)`); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	def := db.Catalog().Get("r")
	db.mu.RLock()
	op, err := db.IndexScan(def, "idx_v", plan.IndexRange{Prefix: sqltypes.Row{sqltypes.NewInt(42)}}, nil)
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drainOp(t, db, op)); got != 1 {
		t.Fatalf("point lookup after rollback: %d rows, want 1", got)
	}
}

// TestIndexScanReleasesLatchBetweenChunks: an open index scan holds the
// table's write latch only while it reads a chunk of entries, so a writer
// commits while the scan is mid-flight instead of queueing until Close.
// The scan still returns exactly the rows of its snapshot, in key order.
// Run with -race in CI.
func TestIndexScanReleasesLatchBetweenChunks(t *testing.T) {
	db, err := Open(t.TempDir(), Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE w (v INT, tag VARCHAR(8))`)
	const n = 4*indexScanChunk + 37 // more than three chunks
	var rows []sqltypes.Row
	for i := 0; i < n; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(n - i)), sqltypes.NewString("old")})
	}
	if err := db.InsertRows("w", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE INDEX idx_v ON w(v)`)

	lo := sqltypes.NewInt(0)
	db.mu.RLock()
	op, err := db.IndexScan(db.Catalog().Get("w"), "idx_v", plan.IndexRange{Lo: &lo, LoInc: true}, nil)
	db.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	snap := db.tm.readSnapshot()
	defer db.tm.releaseSnapshot(snap)
	if err := op.Open(db.execContext(snap)); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	first, ok, err := op.Next()
	if err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	seen := []int64{first[0].I}

	// Rows landing inside and after the scanned key range, committed from
	// another session while the scan is open.
	done := make(chan error, 1)
	go func() {
		_, err := db.NewSession().Exec(`INSERT INTO w VALUES (5, 'new'), (700, 'new'), (5000, 'new')`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("insert blocked behind an open index scan")
	}

	for {
		row, ok, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if row[1].S != "old" {
			t.Fatalf("scan surfaced a row committed after its snapshot: %v", row)
		}
		seen = append(seen, row[0].I)
	}
	if len(seen) != n {
		t.Fatalf("scan returned %d rows, want its snapshot's %d", len(seen), n)
	}
	for i, v := range seen {
		if v != int64(i+1) {
			t.Fatalf("row %d: v=%d, want %d (key order, no duplicates)", i, v, i+1)
		}
	}
	if res := mustExec(t, db, `SELECT COUNT(*) FROM w WHERE v = 5`); res.Rows[0][0].I != 2 {
		t.Fatalf("later statement sees %v rows at v=5, want 2", res.Rows[0][0])
	}
}
