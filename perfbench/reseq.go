package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fastq"
	"repro/internal/sqltypes"
	"repro/internal/udf"
)

const (
	reseqReads   = 150_000
	pivotWindow  = 20_000
	pivotWindows = 8
)

const mergeJoinSQL = `SELECT COUNT(*) FROM Alignment JOIN [Read] ON a_r_id = r_id`

const consensusSQL = `
SELECT a_g_id, AssembleConsensus(a_pos, seq, quals)
  FROM AlignmentSorted
 GROUP BY a_g_id`

const dupReadsSQL = `
SELECT short_read_seq, COUNT(*)
  FROM [Read]
 GROUP BY short_read_seq
HAVING COUNT(*) > 1`

const exportSQL = `SELECT a_g_id, a_pos, a_r_id FROM Alignment ORDER BY a_g_id, a_pos`

// Query 3 as written: pivot every alignment of the window into per-base
// rows, call each position, assemble the string.
const pivotSQL = `
SELECT a_g_id, AssembleSequence(position, b)
  FROM (SELECT a_g_id, position, CallBase(base, qual) AS b
          FROM AlignmentSorted
         CROSS APPLY PivotAlignment(a_pos, seq, quals) AS p
         WHERE a_g_id = %d AND a_pos >= %d AND a_pos < %d
         GROUP BY a_g_id, position) t
 GROUP BY a_g_id`

// alignment is one aligned read in reference orientation.
type alignment struct {
	rid, g, pos int64
	minus       bool
	mapq        int64
	seq, qual   string
}

type pivotCase struct {
	g, lo  int64
	want   string
	reads  int
	window string
}

// reseqLane is the generated lane and its oracle.
type reseqLane struct {
	fastqText  []byte
	alignText  int64
	aligns     []alignment // sorted by (g, pos, rid)
	byRead     map[int64]int
	consensus  map[int64]string // chromosome -> SlidingCaller consensus
	dups       map[string]int64 // read sequence -> copies, copies > 1
	pivots     []pivotCase
	readsTotal int
}

func newReseqLane(seed int64) (*reseqLane, error) {
	ds, err := bench.Build1000G(reseqReads, seed)
	if err != nil {
		return nil, err
	}
	l := &reseqLane{
		fastqText:  ds.ReadsFASTQ,
		alignText:  int64(len(bench.RenderAlignmentsFile(ds.Alignments))),
		byRead:     map[int64]int{},
		dups:       map[string]int64{},
		readsTotal: len(ds.Reads),
	}
	readID := map[string]int64{}
	copies := map[string]int64{}
	for i, r := range ds.Reads {
		readID[r.Name] = int64(i + 1)
		copies[r.Seq]++
	}
	for s, n := range copies {
		if n > 1 {
			l.dups[s] = n
		}
	}
	chrom := map[string]int64{}
	for i, c := range ds.Genome.Chroms {
		chrom[c.Name] = int64(i + 1)
	}
	for _, a := range ds.Alignments {
		rid, ok := readID[a.ReadName]
		if !ok {
			return nil, fmt.Errorf("alignment of unknown read %q", a.ReadName)
		}
		l.aligns = append(l.aligns, alignment{rid, chrom[a.RefName], a.Pos, a.Strand == '-', int64(a.MapQ), a.Seq, a.Qual})
	}
	sort.Slice(l.aligns, func(i, j int) bool {
		a, b := l.aligns[i], l.aligns[j]
		if a.g != b.g {
			return a.g < b.g
		}
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.rid < b.rid
	})
	for i, a := range l.aligns {
		if _, dup := l.byRead[a.rid]; dup {
			return nil, fmt.Errorf("read %d aligned twice", a.rid)
		}
		l.byRead[a.rid] = i
	}
	if l.consensus, err = slidingConsensus(l.aligns); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	chromLen := int64(len(ds.Genome.Chroms[0].Seq))
	for k := 0; k < pivotWindows; k++ {
		pc := pivotCase{g: 1 + rng.Int63n(int64(len(ds.Genome.Chroms))), lo: rng.Int63n(chromLen - pivotWindow)}
		var in []alignment
		for _, a := range l.aligns {
			if a.g == pc.g && a.pos >= pc.lo && a.pos < pc.lo+pivotWindow {
				in = append(in, a)
			}
		}
		got, err := slidingConsensus(in)
		if err != nil {
			return nil, err
		}
		pc.want, pc.reads = got[pc.g], len(in)
		pc.window = fmt.Sprintf(pivotSQL, pc.g, pc.lo, pc.lo+pivotWindow)
		l.pivots = append(l.pivots, pc)
	}
	return l, nil
}

// slidingConsensus is the oracle for AssembleConsensus: the library's
// sliding-window caller per chromosome over position-ordered alignments.
func slidingConsensus(aligns []alignment) (map[int64]string, error) {
	out := map[int64]string{}
	var c *consensus.SlidingCaller
	cur := int64(-1)
	flush := func() {
		if c != nil {
			if res := c.Finish(); len(res) == 1 {
				out[cur] = string(res[0].Seq)
			}
		}
	}
	for _, a := range aligns {
		if a.g != cur {
			flush()
			c, cur = consensus.NewSlidingCaller(), a.g
		}
		if err := c.Add(consensus.AlignedRead{Chrom: "group", Pos: int(a.pos), Seq: a.seq, Qual: a.qual}); err != nil {
			return nil, err
		}
	}
	flush()
	return out, nil
}

func (l *reseqLane) digest() [32]byte {
	s := sha256.New()
	s.Write(l.fastqText)
	for _, a := range l.aligns {
		fmt.Fprint(s, a.rid, a.g, a.pos, a.seq)
	}
	var d [32]byte
	copy(d[:], s.Sum(nil))
	return d
}

func reseqSchema(db *core.Database) error {
	udf.RegisterAll(db)
	return execAll(db,
		`CREATE TABLE [Read] (
		    r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED,
		    short_read_seq VARCHAR(300), quals VARCHAR(300))`,
		`CREATE TABLE Alignment (
		    a_r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED,
		    a_g_id INT, a_pos BIGINT, a_strand BIT, a_mapq INT)`,
		`CREATE TABLE AlignmentSorted (
		    a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, a_id BIGINT NOT NULL,
		    seq VARCHAR(300), quals VARCHAR(300),
		    PRIMARY KEY CLUSTERED (a_g_id, a_pos, a_id))`)
}

func runReseq(h *harness) error {
	var lane *reseqLane
	db, err := h.setupDB(0, func() ([32]byte, error) {
		l, err := newReseqLane(h.seed)
		if err != nil {
			return [32]byte{}, err
		}
		lane = l
		return l.digest(), nil
	}, reseqSchema)
	if err != nil {
		return err
	}
	defer db.Close()
	m0 := db.Metrics()

	// Ingest: parse the FASTQ in 20k-record batches into the clustered Read
	// table, then load both alignment tables in read order (the B-trees do
	// the clustering), CHECKPOINT.
	g := h.group()
	sp := h.rec.begin("ingest", "bench", 0, g)
	sess := db.NewSession()
	start := time.Now()
	reads, err := h.ingestFASTQ(sess, "Read", lane.fastqText, func(id int64, rec fastq.Record) (sqltypes.Row, error) {
		return sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewString(rec.Seq), sqltypes.NewString(rec.Qual)}, nil
	}, sp.id(), g)
	if err != nil {
		return err
	}
	if reads != lane.readsTotal {
		return fmt.Errorf("parsed %d reads, generated %d", reads, lane.readsTotal)
	}
	byRead := append([]alignment(nil), lane.aligns...)
	sort.Slice(byRead, func(i, j int) bool { return byRead[i].rid < byRead[j].rid })
	alignRows := make([]sqltypes.Row, len(byRead))
	sortedRows := make([]sqltypes.Row, len(byRead))
	for i, a := range byRead {
		alignRows[i] = sqltypes.Row{sqltypes.NewInt(a.rid), sqltypes.NewInt(a.g), sqltypes.NewInt(a.pos),
			sqltypes.NewBool(a.minus), sqltypes.NewInt(a.mapq)}
		sortedRows[i] = sqltypes.Row{sqltypes.NewInt(a.g), sqltypes.NewInt(a.pos), sqltypes.NewInt(a.rid),
			sqltypes.NewString(a.seq), sqltypes.NewString(a.qual)}
	}
	if err := h.load(sess, "Alignment", alignRows, lane.alignText, sp.id(), g); err != nil {
		return err
	}
	if err := h.load(sess, "AlignmentSorted", sortedRows, 0, sp.id(), g); err != nil {
		return err
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
	h.set("ingest_rows_per_s", float64(reads+2*len(byRead))/ingest.Seconds())
	h.set("stored_bytes_per_input_byte", float64(stored)/float64(int64(len(lane.fastqText))+lane.alignText))
	lane.fastqText = nil
	byRead, alignRows, sortedRows = nil, nil, nil

	fixed := []query{
		{"mergejoin", mergeJoinSQL, lane.checkMergeJoin},
		{"consensus", consensusSQL, lane.checkConsensus},
		{"dupreads", dupReadsSQL, lane.checkDups},
		{"sort_export", exportSQL, lane.checkExport},
	}
	rounds := func(n int) []query {
		pc := lane.pivots[(n+len(lane.pivots))%len(lane.pivots)]
		return append(fixed[:len(fixed):len(fixed)], query{"pivot_window", pc.window, lane.checkPivot(pc)})
	}
	var library []float64
	side := func(parent, group int64) error {
		sp := h.rec.begin("consensus.library", "consensus", parent, group)
		t0 := time.Now()
		got, err := slidingConsensus(lane.aligns)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		if len(got) != len(lane.consensus) {
			return fmt.Errorf("library consensus: %d chromosomes, want %d", len(got), len(lane.consensus))
		}
		library = append(library, ms(d))
		return nil
	}
	if err := h.runRounds(db, rounds, side); err != nil {
		return err
	}
	h.common()
	if h.rec != nil {
		pc := lane.pivots[0]
		x, err := h.misestimate(db, fmt.Sprintf(
			"SELECT COUNT(*) FROM AlignmentSorted WHERE a_g_id = %d AND a_pos >= %d AND a_pos < %d",
			pc.g, pc.lo, pc.lo+pivotWindow), 0, h.group())
		h.op(err)
		h.set("plan.window_misestimate_x", x)
		lib := median(library)
		h.set("consensus.library_ms", lib)
		h.set("consensus.db_overhead_x", ratio(h.values["exec.consensus_ms"], lib))
	}
	h.engineCounters(m0, db.Metrics())
	return nil
}

func (l *reseqLane) checkMergeJoin(res *core.Result) error {
	if len(res.Rows) != 1 || res.Rows[0][0].I != int64(len(l.aligns)) {
		return fmt.Errorf("join count %v, want %d alignments", res.Rows, len(l.aligns))
	}
	return nil
}

func (l *reseqLane) checkConsensus(res *core.Result) error {
	if len(res.Rows) != len(l.consensus) {
		return fmt.Errorf("%d chromosomes, want %d", len(res.Rows), len(l.consensus))
	}
	for _, r := range res.Rows {
		if want := l.consensus[r[0].I]; r[1].S != want {
			return fmt.Errorf("chromosome %d: consensus differs from consensus.SlidingCaller (%d vs %d bases)", r[0].I, len(r[1].S), len(want))
		}
	}
	return nil
}

func (l *reseqLane) checkDups(res *core.Result) error {
	if len(res.Rows) != len(l.dups) {
		return fmt.Errorf("%d duplicate groups, want %d", len(res.Rows), len(l.dups))
	}
	for _, r := range res.Rows {
		if want := l.dups[r[0].S]; r[1].I != want {
			return fmt.Errorf("read %s: %d copies, want %d", r[0].S, r[1].I, want)
		}
	}
	return nil
}

// checkExport: every alignment exactly once, at its own position, in
// (chromosome, position) order.
func (l *reseqLane) checkExport(res *core.Result) error {
	if len(res.Rows) != len(l.aligns) {
		return fmt.Errorf("exported %d rows, want %d", len(res.Rows), len(l.aligns))
	}
	seen := make([]bool, len(l.aligns))
	for i, r := range res.Rows {
		k, ok := l.byRead[r[2].I]
		if !ok || seen[k] {
			return fmt.Errorf("row %d: read %d unknown or repeated", i, r[2].I)
		}
		seen[k] = true
		if a := l.aligns[k]; a.g != r[0].I || a.pos != r[1].I {
			return fmt.Errorf("row %d: read %d at %d:%d, want %d:%d", i, a.rid, r[0].I, r[1].I, a.g, a.pos)
		}
		if i > 0 {
			p := res.Rows[i-1]
			if p[0].I > r[0].I || p[0].I == r[0].I && p[1].I > r[1].I {
				return fmt.Errorf("row %d out of order", i)
			}
		}
	}
	return nil
}

// checkPivot: the pivot plan over a window equals the sliding-window
// caller over the same alignments.
func (l *reseqLane) checkPivot(pc pivotCase) func(*core.Result) error {
	return func(res *core.Result) error {
		if pc.reads == 0 {
			if len(res.Rows) != 0 {
				return fmt.Errorf("empty window returned %d rows", len(res.Rows))
			}
			return nil
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != pc.g || res.Rows[0][1].S != pc.want {
			return fmt.Errorf("window %d:%d differs from the sliding-window consensus", pc.g, pc.lo)
		}
		return nil
	}
}
