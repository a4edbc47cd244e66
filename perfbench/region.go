package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sqltypes"
)

const (
	regionRows    = 190_000
	regionChroms  = 4
	regionChrom   = 75_000
	regionPool    = 512 // pages: 4 MB
	writerBatch   = 200
	writerPeriod  = time.Second
	regionWindow  = 300
	regionReadLen = 36
)

const (
	pointSQL  = `SELECT a_id, a_g_id, a_pos FROM Alignment WHERE a_r_id = %d`
	windowSQL = `SELECT COUNT(*) FROM Alignment WHERE a_g_id = %d AND a_pos >= %d AND a_pos < %d`
)

// regionData is the alignment heap's rows — the initial load followed by
// every row the writer may append — and the oracle's position index.
type regionData struct {
	rows    []sqltypes.Row
	text    []int64   // bytes of each row as tab-separated text
	readID  []int64   // a_r_id of row i (a_id is i+1)
	byChrom [][]int32 // per chromosome, row numbers sorted by position
	pos     []int64
}

func newRegionData(seed int64, seconds time.Duration) *regionData {
	rng := rand.New(rand.NewSource(seed))
	n := regionRows + (int(seconds/writerPeriod)+2)*writerBatch
	d := &regionData{
		rows:    make([]sqltypes.Row, n),
		text:    make([]int64, n),
		readID:  make([]int64, n),
		byChrom: make([][]int32, regionChroms+1),
		pos:     make([]int64, n),
	}
	perm := rng.Perm(n)
	seq := make([]byte, regionReadLen)
	for i := 0; i < n; i++ {
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
		}
		rid := int64(perm[i] + 1)
		g := int64(1 + rng.Intn(regionChroms))
		pos := rng.Int63n(regionChrom)
		minus := rng.Intn(2) == 1
		mapq := int64(rng.Intn(61))
		d.rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i + 1)), sqltypes.NewInt(rid), sqltypes.NewInt(g), sqltypes.NewInt(pos),
			sqltypes.NewBool(minus), sqltypes.NewInt(mapq), sqltypes.NewString(string(seq)),
		}
		d.text[i] = int64(len(strconv.Itoa(i+1)) + len(strconv.FormatInt(rid, 10)) + 1 +
			len(strconv.FormatInt(pos, 10)) + 1 + len(strconv.FormatInt(mapq, 10)) + len(seq) + 7)
		d.readID[i] = rid
		d.pos[i] = pos
		d.byChrom[g] = append(d.byChrom[g], int32(i))
	}
	for _, rows := range d.byChrom {
		sort.Slice(rows, func(a, b int) bool { return d.pos[rows[a]] < d.pos[rows[b]] })
	}
	return d
}

func (d *regionData) digest() [32]byte {
	s := sha256.New()
	for i := range d.readID {
		binary.Write(s, binary.LittleEndian, [2]int64{d.readID[i], d.pos[i]})
	}
	var sum [32]byte
	copy(sum[:], s.Sum(nil))
	return sum
}

// windowCount counts rows numbered below limit with position in [lo, hi).
func (d *regionData) windowCount(g, lo, hi int64, limit int) int64 {
	rows := d.byChrom[g]
	i := sort.Search(len(rows), func(k int) bool { return d.pos[rows[k]] >= lo })
	var n int64
	for ; i < len(rows) && d.pos[rows[i]] < hi; i++ {
		if int(rows[i]) < limit {
			n++
		}
	}
	return n
}

func regionSchema(db *core.Database) error {
	return execAll(db, `CREATE TABLE Alignment (
	    a_id BIGINT, a_r_id BIGINT, a_g_id INT, a_pos BIGINT,
	    a_strand BIT, a_mapq INT, a_seq VARCHAR(64))`)
}

func runRegion(h *harness) error {
	var data *regionData
	db, err := h.setupDB(regionPool, func() ([32]byte, error) {
		data = newRegionData(h.seed, h.seconds)
		return data.digest(), nil
	}, regionSchema)
	if err != nil {
		return err
	}
	defer db.Close()
	m0 := db.Metrics()

	// Ingest: load the heap in 20k-row transactions, build both secondary
	// indexes, CHECKPOINT.
	g := h.group()
	sp := h.rec.begin("ingest", "bench", 0, g)
	sess := db.NewSession()
	start := time.Now()
	var input int64
	for _, b := range data.text[:regionRows] {
		input += b
	}
	if err := h.load(sess, "Alignment", data.rows[:regionRows], input, sp.id(), g); err != nil {
		return err
	}
	for _, ddl := range []string{
		`CREATE INDEX ix_read ON Alignment(a_r_id)`,
		`CREATE INDEX ix_pos ON Alignment(a_g_id, a_pos)`,
	} {
		isp := h.rec.begin("core.create_index", "core", sp.id(), g)
		_, err := db.Exec(ddl)
		isp.end()
		h.op(err)
		if err != nil {
			return err
		}
	}
	if err := h.checkpoint(db, sp.id(), g); err != nil {
		return err
	}
	ingest := time.Since(start)
	stored, err := h.storedBytes(sp.id(), g)
	if err != nil {
		return err
	}
	if err := h.verifyIntegrity(db, sp.id(), g); err != nil {
		return err
	}
	sp.end()
	h.set("ingest_rows_per_s", float64(regionRows)/ingest.Seconds())
	h.set("stored_bytes_per_input_byte", float64(stored)/float64(input))
	// Only writer commits count toward commit latency here.
	h.mu.Lock()
	h.commitLat = nil
	h.mu.Unlock()

	// Timed phase: an open-loop writer beside a closed-loop reader.
	var committed, issued atomic.Int64
	committed.Store(regionRows)
	issued.Store(regionRows)
	p := startPhase(db)
	deadline := p.start.Add(h.seconds)
	var late []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws := db.NewSession()
		loop := openLoop{start: p.start, period: writerPeriod}
		for i := 0; ; i++ {
			due, ok := loop.wait(i, deadline)
			if !ok {
				return
			}
			lo := regionRows + i*writerBatch
			if lo+writerBatch > len(data.rows) {
				return
			}
			t := tick{due: due, issued: time.Now()}
			late = append(late, ms(t.late()))
			bg := h.group()
			bsp := h.rec.begin("writer.batch", "bench", 0, bg)
			issued.Store(int64(lo + writerBatch))
			var in int64
			for _, b := range data.text[lo : lo+writerBatch] {
				in += b
			}
			if err := h.commitBatch(ws, "Alignment", data.rows[lo:lo+writerBatch], bsp.id(), bg, due); err != nil {
				// Counted as failed. The reader's oracle needs the committed
				// rows to stay a prefix of data.rows, so the writer stops.
				bsp.end()
				return
			}
			committed.Store(int64(lo + writerBatch))
			h.mu.Lock()
			h.pendingIn += in
			h.mu.Unlock()
			_ = h.checkpoint(db, bsp.id(), bg) // a failure is counted; the schedule goes on
			bsp.end()
		}
	}()

	rs := db.NewSession()
	rng := rand.New(rand.NewSource(h.seed + 1))
	var point, window []float64
	cycles := 0
	for ; time.Now().Before(deadline); cycles++ {
		traced := h.rec != nil && cycles%2 == 0
		rec := h.rec
		if !traced {
			rec = nil
		}
		cg := h.group()
		w := rec.watchGC()
		csp := rec.begin("reader.cycle", "bench", 0, cg)

		row := rng.Intn(int(committed.Load()))
		pq := query{"point", fmt.Sprintf(pointSQL, data.readID[row]), func(res *core.Result) error {
			if len(res.Rows) != 1 {
				return fmt.Errorf("read %d: %d rows, want 1", data.readID[row], len(res.Rows))
			}
			r := res.Rows[0]
			if r[0].I != int64(row+1) || r[2].I != data.pos[row] {
				return fmt.Errorf("read %d: got a_id %d at %d, want %d at %d", data.readID[row], r[0].I, r[2].I, row+1, data.pos[row])
			}
			return nil
		}}
		dp, perr := h.run(rs, pq, traced, csp.id(), cg)

		wgid := int64(1 + rng.Intn(regionChroms))
		wlo := rng.Int63n(regionChrom - regionWindow)
		before := int(committed.Load())
		wq := query{"window", fmt.Sprintf(windowSQL, wgid, wlo, wlo+regionWindow), func(res *core.Result) error {
			after := int(issued.Load())
			lo, hi := data.windowCount(wgid, wlo, wlo+regionWindow, before), data.windowCount(wgid, wlo, wlo+regionWindow, after)
			if len(res.Rows) != 1 || res.Rows[0][0].I < lo || res.Rows[0][0].I > hi {
				return fmt.Errorf("window %d:%d: %v rows, want %d..%d", wgid, wlo, res.Rows, lo, hi)
			}
			return nil
		}}
		dw, werr := h.run(rs, wq, traced, csp.id(), cg)
		csp.end()
		p.endRound()
		rec.pauses(w, csp.id(), cg)
		if perr != nil || werr != nil {
			continue
		}
		h.mu.Lock()
		if traced {
			h.tracedRnds = append(h.tracedRnds, ms(dp+dw))
		} else {
			h.rounds = append(h.rounds, ms(dp+dw))
			point = append(point, ms(dp))
			window = append(window, ms(dw))
		}
		h.mu.Unlock()
	}
	wg.Wait()
	h.phaseMetrics(p.finish(), cycles, 2*cycles)

	h.common()
	set := func(name string, xs []float64, q float64) {
		v, _ := percentile(xs, q)
		h.set(name, v)
	}
	set("point_p50_ms", point, 0.5)
	set("point_p90_ms", point, 0.9)
	set("window_p50_ms", window, 0.5)
	set("window_p90_ms", window, 0.9)
	set("bench.writer_late_ms_p90", late, 0.9)
	if h.rec != nil {
		wlo := rng.Int63n(regionChrom - regionWindow)
		x, err := h.misestimate(db, fmt.Sprintf(windowSQL, 1, wlo, wlo+regionWindow), 0, h.group())
		h.op(err)
		h.set("plan.window_misestimate_x", x)
	}
	h.engineCounters(m0, db.Metrics())
	return nil
}
