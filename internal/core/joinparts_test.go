package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// geneCountSQL is the DGE lane's gene-expression query shape: reads join
// their tag, the tag joins its alignment, and reads count per gene.
const geneCountSQL = `SELECT g_name, COUNT(*) FROM reads3 JOIN tags3 ON r_seq = t_seq JOIN genes3 ON g_t_id = t_id WHERE g_name <> '' GROUP BY g_name`

// loadGeneTables fills the three tables of geneCountSQL and returns the
// expected per-gene counts, computed directly from the generated rows.
// Every fifth tag aligns intergenic (empty gene name), and some reads
// carry sequences no tag has.
func loadGeneTables(t *testing.T, db *Database) map[string]int64 {
	t.Helper()
	const nReads, nTags, nGenes = 6000, 300, 40
	mustExec(t, db, `CREATE TABLE reads3 (r_id INT, r_seq VARCHAR(30))`)
	mustExec(t, db, `CREATE TABLE tags3 (t_id INT, t_seq VARCHAR(30))`)
	mustExec(t, db, `CREATE TABLE genes3 (g_t_id INT, g_name VARCHAR(20))`)
	tagSeq := func(i int) string { return fmt.Sprintf("TAG%05d", i) }
	gene := func(tag int) string {
		if tag%5 == 0 {
			return ""
		}
		return fmt.Sprintf("gene%02d", tag%nGenes)
	}
	var reads, tags, genes []sqltypes.Row
	want := map[string]int64{}
	for i := 0; i < nReads; i++ {
		tag := (i * 7) % (nTags + 50) // tags >= nTags do not exist
		reads = append(reads, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(tagSeq(tag))})
		if g := gene(tag); tag < nTags && g != "" {
			want[g]++
		}
	}
	for i := 0; i < nTags; i++ {
		tags = append(tags, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(tagSeq(i))})
		genes = append(genes, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(gene(i))})
	}
	for name, rows := range map[string][]sqltypes.Row{"reads3": reads, "tags3": tags, "genes3": genes} {
		if err := db.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, "CHECKPOINT")
	return want
}

func openGeneDB(t *testing.T, dop int, budget int64) (*Database, map[string]int64) {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{
		DOP:               dop,
		ParallelThreshold: 256,
		JoinMemoryBudget:  budget,
		JoinPartitions:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, loadGeneTables(t, db)
}

// assertNoTempFiles fails if spill files outlived their query.
func assertNoTempFiles(t *testing.T, db *Database) {
	t.Helper()
	tmpDir := filepath.Join(db.Dir(), "tmp")
	if entries, err := os.ReadDir(tmpDir); err == nil && len(entries) > 0 {
		t.Errorf("%d spill files left behind in %s", len(entries), tmpDir)
	}
}

// TestStackedPartitionedJoins runs a join stacked on a partitioned join,
// under GROUP BY, at DOP 1, 2 and 4, in memory and with a budget that
// forces both joins to spill. The counts must match the ones computed in
// Go. At DOP > 1 the upper join probes the lower join's parts and the
// partial aggregates run on the upper join's parts, so one exchange runs,
// under the final aggregate. The lower join's exchange stays on display
// but is bypassed: EXPLAIN ANALYZE gives it no time of its own.
func TestStackedPartitionedJoins(t *testing.T) {
	for _, dop := range []int{1, 2, 4} {
		for _, budget := range []int64{-1, 2 << 10} {
			t.Run(fmt.Sprintf("dop=%d/budget=%d", dop, budget), func(t *testing.T) {
				db, want := openGeneDB(t, dop, budget)
				res := mustExec(t, db, geneCountSQL)
				got := map[string]int64{}
				for _, r := range res.Rows {
					got[r[0].S] = r[1].I
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("gene counts differ from the Go oracle:\n got %v\nwant %v", got, want)
				}
				if s := db.ExecStats().Join; budget > 0 && (s.SpilledPartitions == 0 || s.SpillRecursions == 0) {
					t.Fatalf("2 KB budget did not spill and re-join: %+v", s)
				}
				assertNoTempFiles(t, db)
				if dop == 1 {
					return
				}
				plan := mustExec(t, db, "EXPLAIN ANALYZE "+geneCountSQL).Plan
				var ops []string
				for _, ln := range strings.Split(plan, "\n") {
					if i := strings.Index(ln, "|--"); i >= 0 {
						ops = append(ops, ln[i+3:])
					}
				}
				shape := []string{
					"Parallelism (Gather Streams)",
					"Hash Match (Partial Aggregate",
					"Hash Match (Partitioned Inner Join) HASH:[t_id]=[g_t_id]",
					"Parallelism (Gather Streams)",
					"Hash Match (Partitioned Inner Join) HASH:[r_seq]=[t_seq]",
				}
				at := -1
				for i, op := range ops {
					if strings.HasPrefix(op, shape[0]) {
						at = i
						break
					}
				}
				if at < 0 || at+len(shape) > len(ops) {
					t.Fatalf("no exchange above the partial aggregate:\n%s", plan)
				}
				for k, want := range shape {
					if !strings.HasPrefix(ops[at+k], want) {
						t.Fatalf("plan line %d is %q, want %q:\n%s", at+k, ops[at+k], want, plan)
					}
				}
				if strings.Contains(ops[at+3], "time=") {
					t.Fatalf("the exchange between the joins ran:\n%s", plan)
				}
			})
		}
	}
}

// TestPartitionedJoinTopClosesEarly: a TOP over stacked partitioned
// joins stops after a few rows. Closing the plan mid-stream must stop
// every probe part and exchange goroutine and release every spill file.
func TestPartitionedJoinTopClosesEarly(t *testing.T) {
	db, _ := openGeneDB(t, 4, 2<<10)
	const sql = `SELECT TOP 5 r_id, g_name FROM reads3 JOIN tags3 ON r_seq = t_seq JOIN genes3 ON g_t_id = t_id`
	mustExec(t, db, sql) // warm up background workers
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if res := mustExec(t, db, sql); len(res.Rows) != 5 {
			t.Fatalf("TOP 5 returned %d rows", len(res.Rows))
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the queries, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertNoTempFiles(t, db)
	if s := db.ExecStats().Join; s.SpilledPartitions == 0 {
		t.Fatalf("2 KB budget did not spill: %+v", s)
	}
}
