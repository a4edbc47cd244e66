package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// Projection pushdown correctness. Every case runs a statement whose
// scans carry only the columns it reads and checks the result against an
// answer computed in Go from the generated rows — never against another
// engine path. Each case runs at DOP 1 and 2 (parallel scans, exchanges
// and partitioned joins at 2) and on the row-at-a-time executor.

const projReads = 3000

type projRead struct {
	id, lane, score int64
	seq, dna, quals string
}

func projTag(k int) string { return fmt.Sprintf("TAG%02d", k) }

func projReadRow(i int) projRead {
	var dna strings.Builder
	for k := 0; k < 12; k++ {
		dna.WriteByte("ACGT"[(i>>uint(k%10)+k)%4])
	}
	return projRead{
		id: int64(i), lane: int64(i / 500), score: int64(i * 37 % 101),
		seq: projTag(i % 13), dna: dna.String(), quals: fmt.Sprintf("Q%05d", i*7919%10007),
	}
}

// projRows renders expected rows the way resultRows renders results.
func projRows(rows ...[]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprint(v)
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func resultRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			switch v.K {
			case sqltypes.KindString:
				parts[j] = v.S
			case sqltypes.KindBool:
				parts[j] = fmt.Sprint(v.I != 0)
			default:
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func sameRows(t *testing.T, what string, got, want []string, ordered bool) {
	t.Helper()
	if !ordered {
		got = append([]string(nil), got...)
		want = append([]string(nil), want...)
		sort.Strings(got)
		sort.Strings(want)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d (first got %v)", what, len(got), len(want), head(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", what, i, got[i], want[i])
		}
	}
	if len(want) == 0 {
		t.Fatalf("%s: the case selects no rows and checks nothing", what)
	}
}

func head(rows []string) []string {
	if len(rows) > 3 {
		return rows[:3]
	}
	return rows
}

func openProjectionDB(t *testing.T, opts Options) (*Database, []projRead) {
	t.Helper()
	opts.ParallelThreshold = 256
	db, err := Open(filepath.Join(t.TempDir(), "db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.RegisterTVF("range", rangeTVF{})
	mustExec(t, db, `CREATE TABLE reads (r_id BIGINT, lane INT, seq VARCHAR(16), dna SEQUENCE, quals VARCHAR(16), score INT)`)
	mustExec(t, db, `CREATE TABLE tags (t_id INT, seq VARCHAR(16))`)
	mustExec(t, db, `CREATE TABLE ca (id BIGINT PRIMARY KEY CLUSTERED, v VARCHAR(16), w INT)`)
	mustExec(t, db, `CREATE TABLE cb (id BIGINT PRIMARY KEY CLUSTERED, x INT, y VARCHAR(16))`)
	mustExec(t, db, `CREATE TABLE sink (d VARCHAR(16), s INT)`)
	reads := make([]projRead, projReads)
	rows := make([]sqltypes.Row, projReads)
	for i := range reads {
		r := projReadRow(i)
		reads[i] = r
		rows[i] = sqltypes.Row{sqltypes.NewInt(r.id), sqltypes.NewInt(r.lane), sqltypes.NewString(r.seq),
			sqltypes.NewString(r.dna), sqltypes.NewString(r.quals), sqltypes.NewInt(r.score)}
	}
	if err := db.InsertRows("reads", rows); err != nil {
		t.Fatal(err)
	}
	// Tag 12 has no row, so joins drop a thirteenth of the reads.
	var tagRows []sqltypes.Row
	for k := 0; k < 12; k++ {
		tagRows = append(tagRows, sqltypes.Row{sqltypes.NewInt(int64(k)), sqltypes.NewString(projTag(k))})
	}
	if err := db.InsertRows("tags", tagRows); err != nil {
		t.Fatal(err)
	}
	var caRows, cbRows []sqltypes.Row
	for id := 0; id < 400; id++ {
		caRows = append(caRows, sqltypes.Row{sqltypes.NewInt(int64(id)), sqltypes.NewString(fmt.Sprintf("v%d", id)), sqltypes.NewInt(int64(id % 7))})
		cbRows = append(cbRows, sqltypes.Row{sqltypes.NewInt(int64(2 * id)), sqltypes.NewInt(int64(6 * id)), sqltypes.NewString(fmt.Sprintf("y%d", id))})
	}
	if err := db.InsertRows("ca", caRows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("cb", cbRows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE INDEX ix_score ON reads(score)`)
	mustExec(t, db, `CHECKPOINT`)
	return db, reads
}

func TestProjectionPushdownResults(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"dop1", Options{DOP: 1}},
		{"dop2", Options{DOP: 2}},
		{"dop2-rows", Options{DOP: 2, DisableVectorized: true}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			db, reads := openProjectionDB(t, cfg.opts)
			joined := func(r projRead) bool { return r.seq != projTag(12) }
			tagID := func(r projRead) int64 { return r.id % 13 }

			t.Run("star", func(t *testing.T) {
				var want [][]any
				for k := 0; k < 12; k++ {
					want = append(want, []any{k, projTag(k)})
				}
				sameRows(t, "SELECT *", resultRows(mustExec(t, db, `SELECT * FROM tags`)), projRows(want...), false)
			})
			t.Run("qualified-star", func(t *testing.T) {
				var want [][]any
				for _, r := range reads {
					if r.lane == 2 && joined(r) {
						want = append(want, []any{r.id, r.lane, r.seq, r.dna, r.quals, r.score, tagID(r)})
					}
				}
				res := mustExec(t, db, `SELECT r.*, t.t_id FROM reads r JOIN tags t ON r.seq = t.seq WHERE r.lane = 2`)
				sameRows(t, "r.*", resultRows(res), projRows(want...), false)
			})
			t.Run("shared-name-qualified", func(t *testing.T) {
				var want [][]any
				for _, r := range reads {
					if r.score < 10 && joined(r) {
						want = append(want, []any{tagID(r), r.seq, r.quals})
					}
				}
				res := mustExec(t, db, `SELECT t.t_id, t.seq, r.quals FROM reads r JOIN tags t ON r.seq = t.seq WHERE r.score < 10`)
				sameRows(t, "qualified", resultRows(res), projRows(want...), false)
			})
			t.Run("shared-name-unqualified", func(t *testing.T) {
				var want [][]any
				for _, r := range reads {
					if r.score == 5 && joined(r) {
						want = append(want, []any{tagID(r), r.quals, r.dna})
					}
				}
				res := mustExec(t, db, `SELECT t_id, quals, dna FROM reads JOIN tags ON reads.seq = tags.seq WHERE score = 5`)
				sameRows(t, "unqualified", resultRows(res), projRows(want...), false)
				// Both tables keep seq, so a bare reference stays ambiguous.
				_, err := db.Exec(`SELECT seq FROM reads JOIN tags ON reads.seq = tags.seq`)
				if err == nil || !strings.Contains(err.Error(), "ambiguous") {
					t.Fatalf("bare shared column: err = %v, want ambiguous", err)
				}
			})
			t.Run("order-by-alias", func(t *testing.T) {
				var want [][]any
				for i := len(reads) - 1; i >= 0; i-- {
					if r := reads[i]; r.lane == 3 && r.score > 90 {
						want = append(want, []any{r.id, r.dna})
					}
				}
				res := mustExec(t, db, `SELECT r_id AS k, dna FROM reads WHERE lane = 3 AND score > 90 ORDER BY k DESC`)
				sameRows(t, "ORDER BY alias", resultRows(res), projRows(want...), true)
			})
			t.Run("order-by-unselected", func(t *testing.T) {
				var sel []projRead
				for _, r := range reads {
					if r.lane == 1 {
						sel = append(sel, r)
					}
				}
				sort.SliceStable(sel, func(i, j int) bool { return sel[i].score < sel[j].score })
				var want [][]any
				for _, r := range sel {
					want = append(want, []any{r.quals})
				}
				res := mustExec(t, db, `SELECT quals FROM reads WHERE lane = 1 ORDER BY score, r_id`)
				sameRows(t, "ORDER BY unselected", resultRows(res), projRows(want...), true)
			})
			t.Run("group-having-unselected", func(t *testing.T) {
				count := map[string]int64{}
				minQ := map[string]string{}
				for _, r := range reads {
					count[r.seq]++
					if q, ok := minQ[r.seq]; !ok || r.quals < q {
						minQ[r.seq] = r.quals
					}
				}
				var want [][]any
				for s, n := range count {
					if minQ[s] < "Q00010" {
						want = append(want, []any{n})
					}
				}
				res := mustExec(t, db, `SELECT COUNT(*) AS n FROM reads GROUP BY seq HAVING MIN(quals) < 'Q00010'`)
				sameRows(t, "GROUP BY/HAVING", resultRows(res), projRows(want...), false)
			})
			t.Run("derived-table", func(t *testing.T) {
				count := map[string]int64{}
				for _, r := range reads {
					if r.lane < 2 && r.score > 50 {
						count[r.seq]++
					}
				}
				var want [][]any
				for s, n := range count {
					want = append(want, []any{s, n})
				}
				res := mustExec(t, db, `SELECT d.s, COUNT(*) FROM (SELECT seq AS s, score FROM reads WHERE lane < 2) d WHERE d.score > 50 GROUP BY d.s`)
				sameRows(t, "derived", resultRows(res), projRows(want...), false)
			})
			t.Run("cross-apply-args", func(t *testing.T) {
				var want [][]any
				for _, r := range reads {
					if r.id < 1200 {
						for n := int64(0); n < r.lane; n++ {
							want = append(want, []any{r.id, n})
						}
					}
				}
				res := mustExec(t, db, `SELECT r_id, n FROM reads CROSS APPLY range(lane) x WHERE r_id < 1200`)
				sameRows(t, "CROSS APPLY", resultRows(res), projRows(want...), false)
			})
			t.Run("where-unselected-paths", func(t *testing.T) {
				var want [][]any
				for _, r := range reads {
					if r.score == 7 && r.id < 2000 {
						want = append(want, []any{r.quals})
					}
				}
				const q = `SELECT quals FROM reads WHERE score = 7 AND r_id < 2000`
				for path, marker := range map[string]string{"full": "full scan", "zonemap": "zonemap-pruned", "index": "Index Scan [reads] ix_score"} {
					db.planner.ForcePath = path
					plan := mustExec(t, db, "EXPLAIN "+q).Plan
					if !strings.Contains(plan, marker) || !strings.Contains(plan, "COLS:(r_id, quals, score)") {
						db.planner.ForcePath = ""
						t.Fatalf("%s path: plan lacks %q or the projection:\n%s", path, marker, plan)
					}
					res, err := db.Exec(q)
					db.planner.ForcePath = ""
					if err != nil {
						t.Fatal(err)
					}
					sameRows(t, path+" path", resultRows(res), projRows(want...), false)
				}
			})
			t.Run("clustered-merge-join", func(t *testing.T) {
				var want [][]any
				for id := 0; id < 400; id += 2 {
					if x := 3 * id; x > 30 {
						want = append(want, []any{fmt.Sprintf("v%d", id), x})
					}
				}
				const q = `SELECT ca.v, cb.x FROM ca JOIN cb ON ca.id = cb.id WHERE cb.x > 30`
				if plan := mustExec(t, db, "EXPLAIN "+q).Plan; !strings.Contains(plan, "Merge Join") ||
					!strings.Contains(plan, "[ca] (ordered) COLS:(id, v)") {
					t.Fatalf("no projected merge join:\n%s", plan)
				}
				sameRows(t, "merge join", resultRows(mustExec(t, db, q)), projRows(want...), false)
			})
			t.Run("insert-select", func(t *testing.T) {
				var want [][]any
				for _, r := range reads {
					if r.lane == 4 {
						want = append(want, []any{r.dna, r.score})
					}
				}
				mustExec(t, db, `INSERT INTO sink SELECT dna, score FROM reads WHERE lane = 4`)
				sameRows(t, "INSERT ... SELECT", resultRows(mustExec(t, db, `SELECT * FROM sink`)), projRows(want...), false)
			})
			t.Run("bare-count", func(t *testing.T) {
				sameRows(t, "COUNT(*)", resultRows(mustExec(t, db, `SELECT COUNT(*) FROM reads`)), projRows([]any{projReads}), false)
				if plan := mustExec(t, db, `EXPLAIN SELECT COUNT(*) FROM reads`).Plan; !strings.Contains(plan, "Table Scan [reads] COLS:()") {
					t.Fatalf("bare COUNT(*) scan is not empty-projected:\n%s", plan)
				}
				var n int64
				for _, r := range reads {
					if r.quals > "Q05000" {
						n++
					}
				}
				res := mustExec(t, db, `SELECT COUNT(*) FROM reads WHERE quals > 'Q05000'`)
				sameRows(t, "filtered COUNT(*)", resultRows(res), projRows([]any{n}), false)
			})
		})
	}
}
