package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fastq"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// ingestBatch is the rows per load transaction on every workload.
const ingestBatch = 20000

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// harness carries one run's configuration, its span recorder (nil when
// untraced) and everything measured so far. Layer timings are taken
// around the benchmark's calls into each layer's public functions; the
// engine itself is not instrumented.
type harness struct {
	workload string
	seed     int64
	seconds  time.Duration
	rec      *recorder
	outDir   string
	dbDir    string

	values map[string]float64

	attempted atomic.Int64
	failed    atomic.Int64
	probMu    sync.Mutex
	problems  []string
	groups    atomic.Int64

	mu          sync.Mutex // guards the samples below (writer and reader goroutines)
	insertTime  time.Duration
	commitIn    []float64 // ms inside Session.Commit
	commitLat   []float64 // ms per commit as the client saw it
	checkpoints []float64 // ms per CHECKPOINT
	commits     int
	walGrowth   int64
	walInput    int64
	pendingIn   int64 // input bytes committed since the last CHECKPOINT
	parseUS     []float64
	execMS      map[string][]float64 // per query name
	explainMS   map[string][]float64 // per query name, traced rounds only
	rounds      []float64            // untraced round latency, ms
	tracedRnds  []float64            // traced round latency (Exec time only), ms
}

func newHarness(workload string, seed int64, seconds time.Duration, traced bool, outDir string) *harness {
	h := &harness{
		workload:  workload,
		seed:      seed,
		seconds:   seconds,
		outDir:    outDir,
		dbDir:     filepath.Join(outDir, fmt.Sprintf("db_%s_%d", workload, seed)),
		values:    map[string]float64{},
		execMS:    map[string][]float64{},
		explainMS: map[string][]float64{},
	}
	if traced {
		h.rec = newRecorder()
	}
	return h
}

func (h *harness) set(name string, v float64) { h.values[name] = v }

func (h *harness) group() int64 { return h.groups.Add(1) }

// op counts one attempted operation and, when err is non-nil, one failed
// operation with its reason.
func (h *harness) op(err error) {
	h.attempted.Add(1)
	if err == nil {
		return
	}
	h.failed.Add(1)
	h.probMu.Lock()
	if len(h.problems) < 20 {
		h.problems = append(h.problems, err.Error())
	}
	h.probMu.Unlock()
}

// setupDB sets up setupReps times and records the median as setup_s.
// Each repetition regenerates the inputs with gen, which returns a digest
// of them (one seed must always give the same inputs), then opens an
// empty database and creates the schema. The last repetition's database
// is returned.
func (h *harness) setupDB(poolPages int, gen func() ([32]byte, error), schema func(*core.Database) error) (*core.Database, error) {
	var secs []float64
	var db *core.Database
	var first [32]byte
	for rep := 0; rep < setupReps; rep++ {
		if db != nil {
			db.Close()
		}
		runtime.GC()
		start := time.Now()
		d, err := gen()
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			first = d
		} else if d != first {
			return nil, fmt.Errorf("seed %d generated different inputs on set-up %d", h.seed, rep)
		}
		if db, err = h.openDB(poolPages); err != nil {
			return nil, err
		}
		if err := schema(db); err != nil {
			db.Close()
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	h.set("setup_s", median(secs))
	return db, nil
}

// openDB opens an empty database at the run's directory.
func (h *harness) openDB(poolPages int) (*core.Database, error) {
	if err := os.RemoveAll(h.dbDir); err != nil {
		return nil, err
	}
	return core.Open(h.dbDir, core.Options{BufferPoolPages: poolPages, DOP: runtime.NumCPU()})
}

// execAll runs DDL statements.
func execAll(db *core.Database, stmts ...string) error {
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			return fmt.Errorf("%s: %w", firstLine(s), err)
		}
	}
	return nil
}

func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// load inserts rows as one transaction per ingestBatch rows. inputBytes
// is the input these rows came from, charged to the next CHECKPOINT's WAL
// growth.
func (h *harness) load(sess *core.Session, table string, rows []sqltypes.Row, inputBytes int64, parent, group int64) error {
	for lo := 0; lo < len(rows); lo += ingestBatch {
		hi := min(lo+ingestBatch, len(rows))
		if err := h.commitBatch(sess, table, rows[lo:hi], parent, group, time.Now()); err != nil {
			return err
		}
	}
	h.mu.Lock()
	h.pendingIn += inputBytes
	h.mu.Unlock()
	return nil
}

// ingestFASTQ parses text in batches of ingestBatch records, timing the
// fastq.Reader.Next loop, and commits each batch to table as one
// transaction of the rows row makes. It returns the records read.
func (h *harness) ingestFASTQ(sess *core.Session, table string, text []byte, row func(id int64, rec fastq.Record) (sqltypes.Row, error), parent, group int64) (int, error) {
	r := fastq.NewReader(bytes.NewReader(text))
	var parse time.Duration
	n := 0
	for done := false; !done; {
		sp := h.rec.begin("fastq.parse", "fastq", parent, group)
		t0 := time.Now()
		var recs []fastq.Record
		for len(recs) < ingestBatch {
			rec, err := r.Next()
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				sp.end()
				return n, fmt.Errorf("fastq: %w", err)
			}
			recs = append(recs, rec)
		}
		parse += time.Since(t0)
		sp.end()
		if len(recs) == 0 {
			break
		}
		rows := make([]sqltypes.Row, len(recs))
		for i, rec := range recs {
			var err error
			if rows[i], err = row(int64(n+i+1), rec); err != nil {
				return n, err
			}
		}
		if err := h.commitBatch(sess, table, rows, parent, group, time.Now()); err != nil {
			return n, err
		}
		n += len(recs)
	}
	h.set("fastq.parse_ms", ms(parse))
	h.mu.Lock()
	h.pendingIn += int64(len(text))
	h.mu.Unlock()
	return n, nil
}

// commitBatch inserts rows in one explicit transaction: InsertRows is the
// core write path, Commit the WAL flush and fsync. The commit latency is
// measured from due, which is when the batch was scheduled.
func (h *harness) commitBatch(sess *core.Session, table string, rows []sqltypes.Row, parent, group int64, due time.Time) error {
	err := func() error {
		if err := sess.Begin(); err != nil {
			return err
		}
		sp := h.rec.begin("core.insert_rows", "core", parent, group)
		t0 := time.Now()
		err := sess.InsertRows(table, rows)
		ins := time.Since(t0)
		sp.end()
		h.mu.Lock()
		h.insertTime += ins
		h.mu.Unlock()
		if err != nil {
			_ = sess.Rollback() // the insert's error is the one to report
			return err
		}
		sp = h.rec.begin("wal.commit", "wal", parent, group)
		t1 := time.Now()
		err = sess.Commit()
		t := tick{due: due, issued: t0, done: time.Now()}
		sp.end()
		if err != nil {
			return err
		}
		h.mu.Lock()
		h.commitIn = append(h.commitIn, ms(t.done.Sub(t1)))
		h.commitLat = append(h.commitLat, ms(t.latency()))
		h.commits++
		h.mu.Unlock()
		return nil
	}()
	h.op(err)
	return err
}

// checkpoint runs CHECKPOINT, first charging the WAL's growth since the
// last one to the input committed in between.
func (h *harness) checkpoint(db *core.Database, parent, group int64) error {
	var walBytes int64
	if fi, err := os.Stat(filepath.Join(h.dbDir, "db.wal")); err == nil {
		walBytes = fi.Size()
	}
	sp := h.rec.begin("core.checkpoint", "core", parent, group)
	t0 := time.Now()
	err := db.Checkpoint()
	d := time.Since(t0)
	sp.end()
	h.op(err)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.checkpoints = append(h.checkpoints, ms(d))
	h.walGrowth += walBytes
	h.walInput += h.pendingIn
	h.pendingIn = 0
	h.mu.Unlock()
	return nil
}

// storedBytes sums the table and index files under the database
// directory and records the per-table sizes.
func (h *harness) storedBytes(parent, group int64) (int64, error) {
	sp := h.rec.begin("storage.file_sizes", "storage", parent, group)
	defer sp.end()
	files, err := filepath.Glob(filepath.Join(h.dbDir, "t*_*"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		base := filepath.Base(f)
		// t<id>_<table>.heap | .btree | .ix_<index>.btree
		name := base[strings.IndexByte(base, '_')+1:]
		tbl, rest, _ := strings.Cut(name, ".")
		if strings.HasPrefix(rest, "ix_") {
			h.values["storage.index_bytes"] += float64(fi.Size())
		} else {
			h.values["storage.table_bytes."+tbl] += float64(fi.Size())
		}
		total += fi.Size()
	}
	return total, nil
}

// verifyIntegrity runs the storage layer's offline checksum pass.
func (h *harness) verifyIntegrity(db *core.Database, parent, group int64) error {
	if h.rec == nil {
		return nil
	}
	sp := h.rec.begin("storage.verify_integrity", "storage", parent, group)
	defer sp.end()
	tables, err := db.VerifyIntegrity()
	if err != nil {
		return err
	}
	for _, t := range tables {
		if len(t.Failures) > 0 {
			return fmt.Errorf("table %s: %d corrupt pages: %s", t.Table, len(t.Failures), t.Failures[0])
		}
	}
	return nil
}

// query is one statement of a round with its oracle check.
type query struct {
	name  string // exec.<name>_ms
	sql   string
	check func(*core.Result) error
}

// run executes q on sess. When traced it first parses the statement text
// and runs its EXPLAIN, each in its own span; the returned duration is
// the Exec alone. A failed or wrong result counts as a failed operation.
func (h *harness) run(sess *core.Session, q query, traced bool, parent, group int64) (time.Duration, error) {
	rec := h.rec
	if !traced {
		rec = nil
	}
	if traced {
		sp := rec.begin("sqlparse.parse", "sqlparse", parent, group)
		t0 := time.Now()
		_, err := sqlparse.Parse(q.sql)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			h.op(fmt.Errorf("%s: parse: %w", q.name, err))
			return 0, err
		}
		sp = rec.begin("plan.explain", "plan", parent, group)
		t0 = time.Now()
		_, err = sess.Exec("EXPLAIN " + q.sql)
		e := time.Since(t0)
		sp.end()
		if err != nil {
			h.op(fmt.Errorf("%s: explain: %w", q.name, err))
			return 0, err
		}
		h.mu.Lock()
		h.parseUS = append(h.parseUS, float64(d)/float64(time.Microsecond))
		h.explainMS[q.name] = append(h.explainMS[q.name], ms(e))
		h.mu.Unlock()
	}
	sp := rec.begin("exec."+q.name, "exec", parent, group)
	t0 := time.Now()
	res, err := sess.Exec(q.sql)
	d := time.Since(t0)
	sp.end()
	if err == nil {
		err = q.check(res)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", q.name, err)
		h.op(err)
		return d, err
	}
	h.op(nil)
	h.mu.Lock()
	h.execMS[q.name] = append(h.execMS[q.name], ms(d))
	h.mu.Unlock()
	return d, nil
}

// timedPhase brackets the measured part of a run: registry and MemStats
// deltas, and the sampler behind peak_heap_mb. It samples the heap the
// last GC found live rather than the heap's current size, which also
// counts garbage not yet collected and so depends on GC timing, and it
// keeps one peak per round: the largest of a run is an extreme value
// that moves with where GCs happen to fall, the median round's is not.
type timedPhase struct {
	db    *core.Database
	m0    map[string]int64
	mem0  runtime.MemStats
	stop  chan struct{}
	done  chan struct{}
	peak  atomic.Uint64
	peaks []float64
	start time.Time
}

func startPhase(db *core.Database) *timedPhase {
	p := &timedPhase{db: db, stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	p.m0 = db.Metrics()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(p.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			for old := p.peak.Load(); v > old && !p.peak.CompareAndSwap(old, v); old = p.peak.Load() {
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	p.start = time.Now()
	return p
}

// endRound closes the current round's heap peak.
func (p *timedPhase) endRound() { p.peaks = append(p.peaks, float64(p.peak.Swap(0))) }

// phaseDelta is what the timed phase consumed.
type phaseDelta struct {
	m      map[string]int64
	alloc  float64 // bytes
	gc     float64 // cycles
	peakMB float64
}

func (p *timedPhase) finish() phaseDelta {
	close(p.stop)
	<-p.done
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m1 := p.db.Metrics()
	d := phaseDelta{m: map[string]int64{}}
	for k, v := range m1 {
		d.m[k] = v - p.m0[k]
	}
	d.alloc = float64(mem.TotalAlloc - p.mem0.TotalAlloc)
	d.gc = float64(mem.NumGC - p.mem0.NumGC)
	d.peakMB = median(p.peaks) / (1 << 20)
	return d
}

// phaseMetrics turns the timed phase's deltas into the per-round and
// per-op storage, exec and runtime metrics.
func (h *harness) phaseMetrics(d phaseDelta, rounds, ops int) {
	r, o := float64(rounds), float64(ops)
	f := func(k string) float64 { return float64(d.m[k]) }
	h.set("peak_heap_mb", d.peakMB)
	h.set("runtime.alloc_mb_per_round", ratio(d.alloc/(1<<20), r))
	h.set("runtime.gc_cycles_per_round", ratio(d.gc, r))
	h.set("exec.join.build_rows", ratio(f("exec.join.build_rows"), r))
	h.set("exec.join.probe_rows", ratio(f("exec.join.probe_rows"), r))
	h.set("exec.join.bloom_drop_ratio", ratio(f("exec.join.bloom_drops"), f("exec.join.bloom_checks")))
	h.set("exec.join.spilled_partitions", ratio(f("exec.join.spilled_partitions"), r))
	h.set("exec.agg.spilled_rows", ratio(f("exec.agg.spilled_rows"), r))
	h.set("exec.agg.spill_recursions", ratio(f("exec.agg.spill_recursions"), r))
	h.set("exec.sort.runs", ratio(f("exec.sort.runs"), r))
	h.set("exec.sort.spilled_bytes", ratio(f("exec.sort.spilled_bytes"), r))
	h.set("storage.pool.hit_rate", ratio(f("pool.hits"), f("pool.hits")+f("pool.misses")))
	h.set("storage.pool.misses_per_op", ratio(f("pool.misses"), o))
	h.set("storage.pool.evictions_per_op", ratio(f("pool.evictions"), o))
	h.set("storage.integrity.pages_verified_per_op", ratio(f("integrity.pages_verified"), o))
	h.set("storage.scan.zone_skipped_pages_per_op", ratio(f("scan.zone_skipped_pages"), o))
	h.set("storage.scan.values_decoded_per_row", ratio(f("scan.values_decoded"), f("scan.rows")))
	h.set("storage.scan.dict_entries_per_round", ratio(f("scan.dict_entries_decoded"), r))
	// Traced statements are planned twice: once for their EXPLAIN.
	h.mu.Lock()
	planned := o
	for _, xs := range h.explainMS {
		planned += float64(len(xs))
	}
	h.mu.Unlock()
	h.set("plan.path_picks.index", ratio(f("planner.path_picks.index"), planned))
	h.set("plan.path_picks.zonemap", ratio(f("planner.path_picks.zonemap"), planned))
	h.set("plan.path_picks.full", ratio(f("planner.path_picks.full"), planned))
}

// runRounds runs closed-loop rounds of qs on one session until the run's
// seconds are up (and at least minRounds), after one untimed warm-up
// round (qs(-1)). In a traced run every other round is traced; side runs
// after a traced round's queries, outside its timed part.
func (h *harness) runRounds(db *core.Database, qs func(round int) []query, side func(parent, group int64) error) error {
	const minRounds = 6
	sess := db.NewSession()
	for _, q := range qs(-1) {
		if _, err := h.run(sess, q, false, 0, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	h.mu.Lock()
	h.execMS = map[string][]float64{} // the cold warm-up round is no sample
	h.mu.Unlock()
	p := startPhase(db)
	n, ops := 0, 0
	for ; n < minRounds || time.Since(p.start) < h.seconds; n++ {
		traced := h.rec != nil && n%2 == 0
		rec := h.rec
		if !traced {
			rec = nil
		}
		g := h.group()
		w := rec.watchGC()
		sp := rec.begin("round", "bench", 0, g)
		var total time.Duration
		for _, q := range qs(n) {
			ops++
			d, err := h.run(sess, q, traced, sp.id(), g)
			if err != nil {
				continue
			}
			total += d
		}
		if side != nil && traced {
			if err := side(sp.id(), g); err != nil {
				h.op(err)
			}
		}
		sp.end()
		p.endRound()
		rec.pauses(w, sp.id(), g)
		h.mu.Lock()
		if traced {
			h.tracedRnds = append(h.tracedRnds, ms(total))
		} else {
			h.rounds = append(h.rounds, ms(total))
		}
		h.mu.Unlock()
	}
	h.phaseMetrics(p.finish(), n, ops)
	return nil
}

// common sets the metrics every workload derives the same way.
func (h *harness) common() {
	h.mu.Lock()
	defer h.mu.Unlock()
	p50, _ := percentile(h.rounds, 0.5)
	p90, _ := percentile(h.rounds, 0.9)
	h.set("round_p50_ms", p50)
	h.set("round_p90_ms", p90)
	c50, _ := percentile(h.commitLat, 0.5)
	c90, _ := percentile(h.commitLat, 0.9)
	h.set("commit_p50_ms", c50)
	h.set("commit_p90_ms", c90)
	h.set("core.insert_ms", ms(h.insertTime))
	h.set("core.checkpoint_ms", median(h.checkpoints))
	h.set("wal.commit_ms", median(h.commitIn))
	h.set("wal.bytes_per_input_byte", ratio(float64(h.walGrowth), float64(h.walInput)))
	h.set("sqlparse.parse_us", median(h.parseUS))
	var explains []float64
	for _, xs := range h.explainMS {
		explains = append(explains, xs...)
	}
	h.set("plan.explain_us", 1000*median(explains))
	for name, xs := range h.execMS {
		h.set("exec."+name+"_ms", max(0, median(xs)-median(h.explainMS[name])))
	}
	if h.rec != nil && len(h.rounds) > 0 {
		h.set("trace.overhead_pct", 100*(median(h.tracedRnds)/median(h.rounds)-1))
	}
}

// engineCounters records the whole-run registry deltas of the write path.
func (h *harness) engineCounters(m0, m1 map[string]int64) {
	h.set("core.checkpoint_count", float64(m1["checkpoint.count"]-m0["checkpoint.count"]))
	h.set("core.vacuum_runs", float64(m1["vacuum.runs"]-m0["vacuum.runs"]))
	h.mu.Lock()
	commits := h.commits
	h.mu.Unlock()
	h.set("wal.syncs_per_commit", ratio(float64(m1["wal.syncs"]-m0["wal.syncs"]), float64(commits)))
}

// traceMetrics computes per-layer self times and writes the span dump.
func (h *harness) traceMetrics() ([]layerTime, string, error) {
	if h.rec == nil {
		return nil, "", nil
	}
	spans := h.rec.snapshot()
	rows := layerTable(spans, traceLayers)
	for _, r := range rows {
		h.set("trace.self_ms."+r.Layer, ms(r.Self))
	}
	h.set("trace.spans", float64(len(spans)))
	path := filepath.Join(h.outDir, fmt.Sprintf("trace_%s_%d.json", h.workload, h.seed))
	return rows, path, h.rec.dump(path)
}

// misestimate runs EXPLAIN ANALYZE on sql and returns how far the first
// scan's row estimate is off from its actual rows (>= 1 either way).
func (h *harness) misestimate(db *core.Database, sql string, parent, group int64) (float64, error) {
	sp := h.rec.begin("plan.explain_analyze", "plan", parent, group)
	res, err := db.Exec("EXPLAIN ANALYZE " + sql)
	sp.end()
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(res.Plan, "\n") {
		if !strings.Contains(ln, "Scan") {
			continue
		}
		est, ok1 := field(ln, "est=")
		act, ok2 := field(ln, "actual=")
		if !ok1 || !ok2 {
			continue
		}
		est, act = max(est, 1), max(act, 1)
		return max(est/act, act/est), nil
	}
	return 0, fmt.Errorf("no scan estimate in plan:\n%s", res.Plan)
}

// field parses the number following key in s.
func field(s, key string) (float64, bool) {
	i := strings.Index(s, key)
	if i < 0 {
		return 0, false
	}
	s = s[i+len(key):]
	j := 0
	for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.') {
		j++
	}
	v, err := strconv.ParseFloat(s[:j], 64)
	return v, err == nil
}
