package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sqltypes"
)

// Access-path equivalence: the planner may answer a predicate through a
// full scan, a zone-map-pruned parallel scan, or a secondary-index range
// scan — three different physical routes to the same logical rows. These
// tests force each route and demand identical results, including under
// NULL key values and with an uncommitted concurrent transaction whose
// rows every route must refuse to surface.

// fuzzSelect runs the query under each forced access path and fails if
// any path disagrees with the cost-based plan.
func fuzzSelect(t *testing.T, db *Database, query string) {
	t.Helper()
	paths := []string{"", "full", "zonemap", "index"}
	var want []string
	for i, p := range paths {
		db.planner.ForcePath = p
		res, err := db.Exec(query)
		if err != nil {
			t.Fatalf("path %q: %s: %v", p, query, err)
		}
		got := canonResult(res)
		if i == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("path %q: %s: %d rows, cost-based plan returned %d", p, query, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("path %q: %s: row %d differs:\n  %s\n  %s", p, query, j, got[j], want[j])
			}
		}
	}
}

// TestAccessPathEquivalenceFuzz seeds a table with NULLs and duplicate
// keys, builds an index, seals zone maps, opens an in-flight transaction,
// and sweeps randomized sargable (and some non-sargable) predicates
// across all forced access paths at DOP 4.
func TestAccessPathEquivalenceFuzz(t *testing.T) {
	db, err := Open(t.TempDir(), Options{DOP: 4, ParallelThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer func() { db.planner.ForcePath = "" }()

	mustExec(t, db, `CREATE TABLE fz (a INT, b INT, s VARCHAR(16))`)
	rng := rand.New(rand.NewSource(2009))
	var vals []string
	for i := 0; i < 3000; i++ {
		a := fmt.Sprint(rng.Intn(500))
		if i%11 == 0 {
			a = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%s, %d, 's%d')", a, rng.Intn(1000), i%7))
		if len(vals) == 50 {
			mustExec(t, db, "INSERT INTO fz VALUES "+strings.Join(vals, ", "))
			vals = vals[:0]
		}
	}
	mustExec(t, db, `CREATE INDEX idx_a ON fz(a)`)
	mustExec(t, db, `CHECKPOINT`) // seal pages -> zone maps
	mustExec(t, db, `ANALYZE`)    // stats -> selectivity estimates

	// A rolled-back insert: its index entries must never surface.
	s := db.NewSession()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO fz VALUES (250, 250, 'rolled')`); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	// An in-flight transaction held open across the whole fuzz sweep: no
	// access path may see its rows.
	inflight := db.NewSession()
	if err := inflight.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := inflight.Exec(fmt.Sprintf(`INSERT INTO fz VALUES (%d, %d, 'flight')`, i*12, i)); err != nil {
			t.Fatal(err)
		}
	}
	defer inflight.Rollback()

	// The index route must actually be an index scan when forced.
	db.planner.ForcePath = "index"
	res := mustExec(t, db, `EXPLAIN SELECT a, b, s FROM fz WHERE a = 250`)
	if !strings.Contains(res.Plan, "Index Scan") {
		t.Fatalf("forced index path did not plan an Index Scan:\n%s", res.Plan)
	}

	for i := 0; i < 60; i++ {
		k := rng.Intn(520) - 10 // occasionally out of range entirely
		k2 := k + rng.Intn(80)
		m := rng.Intn(1000)
		var pred string
		switch i % 6 {
		case 0:
			pred = fmt.Sprintf("a = %d", k)
		case 1:
			pred = fmt.Sprintf("a > %d AND a <= %d", k, k2)
		case 2:
			pred = fmt.Sprintf("a >= %d", k)
		case 3:
			pred = fmt.Sprintf("a < %d", k)
		case 4:
			pred = fmt.Sprintf("a >= %d AND a < %d AND b < %d", k, k2, m)
		case 5:
			// Not sargable: the index path must degrade, not misfire.
			pred = fmt.Sprintf("a = %d OR b = %d", k, m)
		}
		fuzzSelect(t, db, "SELECT a, b, s FROM fz WHERE "+pred)
	}
	// Aggregates and ordering over each path.
	fuzzSelect(t, db, `SELECT s, COUNT(*), SUM(b) FROM fz WHERE a >= 100 AND a < 300 GROUP BY s`)
	fuzzSelect(t, db, `SELECT a, b FROM fz WHERE a > 450 ORDER BY a, b, s`)
}

// TestCompositeIndexEquivalence drives equality-prefix sarging through
// the same forced-path sweep: prefixes with closed, open-ended, exclusive
// and empty ranges on a two-column index holding NULLs in both key
// columns, string keys that embed "\x00", and float constants against an
// integer key column, which must not become bounds. The table is never
// ANALYZEd, so the cost-based route sizes the index by dives alone.
func TestCompositeIndexEquivalence(t *testing.T) {
	db, err := Open(t.TempDir(), Options{DOP: 4, ParallelThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer func() { db.planner.ForcePath = "" }()

	mustExec(t, db, `CREATE TABLE cx (g INT, pos INT, s VARCHAR(16), k INT)`)
	strs := []string{"", "a", "a\x00", "a\x00b", "a\x01", "ab", "b\x00\x00"}
	rng := rand.New(rand.NewSource(7))
	var rows []sqltypes.Row
	for i := 0; i < 3000; i++ {
		g, pos := sqltypes.NewInt(int64(1+rng.Intn(4))), sqltypes.NewInt(int64(rng.Intn(1000)))
		if i%13 == 0 {
			g = sqltypes.Null
		}
		if i%17 == 0 {
			pos = sqltypes.Null
		}
		rows = append(rows, sqltypes.Row{g, pos, sqltypes.NewString(strs[rng.Intn(len(strs))]), sqltypes.NewInt(int64(rng.Intn(100)))})
		if len(rows) == 500 {
			if err := db.InsertRows("cx", rows); err != nil {
				t.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	mustExec(t, db, `CREATE INDEX ix_gp ON cx(g, pos)`)
	mustExec(t, db, `CREATE INDEX ix_sk ON cx(s, k)`)
	mustExec(t, db, `CHECKPOINT`)
	inflight := db.NewSession()
	if err := inflight.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := inflight.Exec(`INSERT INTO cx VALUES (2, 150, 'a', 5), (2, NULL, 'a', 5), (NULL, 150, 'ab', 1)`); err != nil {
		t.Fatal(err)
	}
	defer inflight.Rollback()

	db.planner.ForcePath = "index"
	for q, want := range map[string]string{
		`SELECT k FROM cx WHERE g = 2 AND pos >= 100 AND pos < 400`: "ix_gp (2, 100..400) entries",
		`SELECT k FROM cx WHERE pos <= 7 AND g = 3`:                 "ix_gp (3, ..7) entries",
		`SELECT k FROM cx WHERE s = 'a` + "\x00" + `' AND k = 4`:    "ix_sk (a\x00, 4) entries",
	} {
		if res := mustExec(t, db, "EXPLAIN "+q); !strings.Contains(res.Plan, want) {
			t.Fatalf("%s: want %q in plan:\n%s", q, want, res.Plan)
		}
	}
	// A float constant cannot bound an integer key column: no index route.
	if res := mustExec(t, db, `EXPLAIN SELECT k FROM cx WHERE g = 2.5`); strings.Contains(res.Plan, "Index Scan") {
		t.Fatalf("float constant sarged an integer key column:\n%s", res.Plan)
	}

	for _, pred := range []string{
		"g = 2 AND pos >= 100 AND pos < 400", // prefix + closed range
		"g = 3 AND pos > 900",                // prefix + open end
		"g = 1 AND pos <= 50",                // prefix + open start (skips NULL pos)
		"g = 2 AND pos > 100 AND pos < 200",  // exclusive bounds
		"g = 4 AND pos > 100 AND pos <= 100", // empty range
		"g = 4 AND pos > 600 AND pos < 300",  // inverted, empty
		"g = 4",                              // bare prefix keeps NULL pos
		"g = 1 AND pos = 77",                 // two-column prefix
		"g >= 3",                             // range on the first column skips NULL g
		"g < 2 AND pos = 5",                  // range stops the prefix
		"pos >= 10 AND pos < 20",             // no leading bound
		"g = 2.0 AND pos >= 100",             // float vs int: pos only, no prefix
		"g = 2 AND pos >= 100.5",             // float vs int: prefix only
		"g = 2.5",
		"g = 9",
		"s = 'a'",
		"s = 'a\x00'",
		"s = 'a\x00' AND k < 50",
		"s > 'a' AND s < 'ab'",
		"s >= 'a\x00'",
		"s > 'a\x00'",
		"s <= 'a\x00b'",
		"s = ''",
	} {
		fuzzSelect(t, db, "SELECT g, pos, s, k FROM cx WHERE "+pred)
	}
}

const indexTortureRows = 500

// runIndexBuildWorkload loads a table, checkpoints, arms the injector,
// and attempts CREATE INDEX — so every armed failpoint sits inside the
// two-phase index build. Returns the failpoints reached.
func runIndexBuildWorkload(t *testing.T, dir string, inj *fault.Injector) int64 {
	t.Helper()
	db, err := Open(dir, Options{DOP: 2, FaultInjector: inj})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := db.Exec(`CREATE TABLE it (k BIGINT, v BIGINT)`); err != nil {
		t.Fatalf("ddl: %v", err)
	}
	var vals []string
	for i := 0; i < indexTortureRows; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, (i*7919)%indexTortureRows))
		if len(vals) == 50 {
			if _, err := db.Exec("INSERT INTO it VALUES " + strings.Join(vals, ", ")); err != nil {
				t.Fatalf("insert: %v", err)
			}
			vals = vals[:0]
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("setup checkpoint: %v", err)
	}
	inj.Arm()
	if _, err := db.Exec(`CREATE INDEX idx_v ON it(v)`); err != nil && !inj.Crashed() {
		t.Fatalf("CREATE INDEX failed without a crash: %v", err)
	}
	points := inj.Points()
	_ = db.Close() // errors expected after a crash
	return points
}

// verifyIndexTorture reopens without the injector and checks the
// whole-index-or-none promise: either the catalog names idx_v and a
// forced index scan agrees with a full scan over every probe, or the
// index is entirely absent, queries still answer correctly, and a fresh
// CREATE INDEX succeeds. Half-built shadow files must be gone either way.
func verifyIndexTorture(t *testing.T, dir, label string) {
	t.Helper()
	db, err := Open(dir, Options{DOP: 2})
	if err != nil {
		t.Fatalf("%s: reopen after crash failed: %v", label, err)
	}
	defer db.Close()
	defer func() { db.planner.ForcePath = "" }()
	if err := db.Health(); err != nil {
		t.Errorf("%s: recovered database unhealthy: %v", label, err)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.building")); len(leftovers) != 0 {
		t.Errorf("%s: half-built index shadows survived recovery: %v", label, leftovers)
	}

	hadIdx := db.Catalog().Get("it").IndexByName("idx_v") != nil
	if !hadIdx {
		// The "none" arm must leave a clean slate: rebuilding works.
		if _, err := db.Exec(`CREATE INDEX idx_v ON it(v)`); err != nil {
			t.Fatalf("%s: rebuilding the lost index: %v", label, err)
		}
	}
	probes := []string{
		"v = 123",
		"v >= 100 AND v < 200",
		"v > 450",
	}
	for _, pred := range probes {
		q := "SELECT k, v FROM it WHERE " + pred
		db.planner.ForcePath = "full"
		want := canonResult(mustExec(t, db, q))
		db.planner.ForcePath = "index"
		res := mustExec(t, db, "EXPLAIN "+q)
		if !strings.Contains(res.Plan, "Index Scan") {
			t.Fatalf("%s: forced index probe planned no Index Scan (had=%v):\n%s", label, hadIdx, res.Plan)
		}
		got := canonResult(mustExec(t, db, q))
		if len(got) != len(want) {
			t.Fatalf("%s: %s: index path %d rows, full scan %d (index present at reopen: %v)",
				label, pred, len(got), len(want), hadIdx)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: %s: row %d differs between index and full scan", label, pred, i)
			}
		}
	}
}

// TestIndexBuildCrashTorture sweeps a crash across every I/O of the
// two-phase index build (sort runs, shadow bulk-load, WAL intent, rename,
// catalog commit, closing checkpoint) and asserts recovery always lands
// on a whole index or none.
func TestIndexBuildCrashTorture(t *testing.T) {
	baseDir := filepath.Join(t.TempDir(), "base")
	baseInj := fault.New()
	points := runIndexBuildWorkload(t, baseDir, baseInj)
	if baseInj.Crashed() {
		t.Fatal("baseline run crashed with no rules")
	}
	if points == 0 {
		t.Fatal("CREATE INDEX reached no failpoints")
	}
	if err := baseInj.WriteBack(); err != nil {
		t.Fatal(err)
	}
	verifyIndexTorture(t, baseDir, "baseline")

	target := int64(30)
	if testing.Short() {
		target = 10
	}
	stride := points / target
	if stride < 1 {
		stride = 1
	}
	crashes := 0
	for k := int64(1); k <= points; k += stride {
		rule := &fault.Rule{Nth: k, Kind: fault.KindCrash}
		if k%3 == 0 {
			rule.TornFrac = 0.6 // torn final write: partial sector on the floor
		}
		inj := fault.New(rule)
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("crash%d", k))
		runIndexBuildWorkload(t, dir, inj)
		if !inj.Crashed() {
			t.Fatalf("crash point %d never fired: build is not deterministic", k)
		}
		if err := inj.PersistErr(); err != nil {
			t.Fatalf("crash point %d: persisting crash image: %v", k, err)
		}
		verifyIndexTorture(t, dir, fmt.Sprintf("crash@%d", k))
		crashes++
	}
	t.Logf("%d failpoints in CREATE INDEX, %d crash points swept", points, crashes)
}
