package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dge"
	"repro/internal/fastq"
	"repro/internal/sqltypes"
)

const dgeReads = 400_000

// Query 1 (Section 5.3.2): unique tags ranked by frequency.
const tagCountSQL = `
SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank,
       COUNT(*) AS freq,
       short_read_seq
  FROM [Read]
 WHERE CHARINDEX('N', short_read_seq) = 0
 GROUP BY short_read_seq`

// Gene expression: reads joined to their unique tag and the tag's
// alignments, counted per gene.
const geneExprSQL = `
SELECT ta_gene, COUNT(*) AS reads
  FROM [Read]
  JOIN Tag ON short_read_seq = t_seq
  JOIN TagAlignment ON ta_t_id = t_id
 WHERE ta_gene <> ''
 GROUP BY ta_gene`

// dgeLane is the generated lane, its oracle, and the rows of the two
// small analysis tables.
type dgeLane struct {
	fastqText []byte
	tags      map[string]int64 // dge.BinTags: tag -> reads
	genes     map[string]int64 // gene -> reads, from a Go-side join
	tagRows   []sqltypes.Row
	alignRows []sqltypes.Row
	sideBytes int64 // tag and alignment files' text size
}

func newDGELane(seed int64) (*dgeLane, error) {
	ds, err := bench.BuildDGE(dgeReads, seed)
	if err != nil {
		return nil, err
	}
	l := &dgeLane{fastqText: ds.ReadsFASTQ, tags: map[string]int64{}, genes: map[string]int64{}}
	bins := dge.BinTags(ds.Reads)
	for i, t := range bins {
		l.tags[t.Seq] = t.Frequency
		l.tagRows = append(l.tagRows, sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewString(t.Seq)})
	}
	// ds.Tags is the same binning; ds.Alignments name tags "tag_<index>".
	resolve := bench.GeneResolver(ds.Genes)
	for _, a := range ds.Alignments {
		id, err := strconv.Atoi(strings.TrimPrefix(a.ReadName, "tag_"))
		if err != nil || id < 1 || id > len(bins) || bins[id-1].Seq != ds.Tags[id-1].Seq {
			return nil, fmt.Errorf("alignment %q names no tag", a.ReadName)
		}
		gene, ok := resolve(a.RefName, a.Pos)
		if ok {
			l.genes[gene] += bins[id-1].Frequency
		}
		l.alignRows = append(l.alignRows, sqltypes.Row{
			sqltypes.NewInt(int64(id)), sqltypes.NewString(a.RefName), sqltypes.NewInt(a.Pos),
			sqltypes.NewBool(a.Strand == '-'), sqltypes.NewString(gene),
		})
	}
	l.sideBytes = int64(len(bench.RenderTagsFile(ds.Tags)) + len(bench.RenderAlignmentsFile(ds.Alignments)))
	return l, nil
}

func (l *dgeLane) digest() [32]byte {
	s := sha256.New()
	s.Write(l.fastqText)
	fmt.Fprint(s, len(l.tags), len(l.genes), len(l.alignRows))
	var d [32]byte
	copy(d[:], s.Sum(nil))
	return d
}

func dgeSchema(db *core.Database) error {
	return execAll(db,
		`CREATE TABLE [Read] (
		    r_id BIGINT, fc_id INT, lane INT, tile INT, x INT, y INT,
		    short_read_seq VARCHAR(300), quals VARCHAR(300))
		  WITH (DATA_COMPRESSION = PAGE)`,
		`CREATE TABLE Tag (t_id INT, t_seq VARCHAR(300))`,
		`CREATE TABLE TagAlignment (ta_t_id INT, ta_chrom VARCHAR(32), ta_pos BIGINT, ta_strand BIT, ta_gene VARCHAR(64))`)
}

func runDGE(h *harness) error {
	var lane *dgeLane
	db, err := h.setupDB(0, func() ([32]byte, error) {
		l, err := newDGELane(h.seed)
		if err != nil {
			return [32]byte{}, err
		}
		lane = l
		return l.digest(), nil
	}, dgeSchema)
	if err != nil {
		return err
	}
	defer db.Close()
	m0 := db.Metrics()

	// Ingest: parse the FASTQ in 20k-record batches, insert each batch as
	// one transaction, load the tag tables, CHECKPOINT.
	g := h.group()
	sp := h.rec.begin("ingest", "bench", 0, g)
	sess := db.NewSession()
	start := time.Now()
	reads, err := h.ingestFASTQ(sess, "Read", lane.fastqText, readRow, sp.id(), g)
	if err != nil {
		return err
	}
	if reads != dgeReads {
		return fmt.Errorf("parsed %d reads, generated %d", reads, dgeReads)
	}
	if err := h.load(sess, "Tag", lane.tagRows, 0, sp.id(), g); err != nil {
		return err
	}
	if err := h.load(sess, "TagAlignment", lane.alignRows, lane.sideBytes, sp.id(), g); err != nil {
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
	rows := dgeReads + len(lane.tagRows) + len(lane.alignRows)
	h.set("ingest_rows_per_s", float64(rows)/ingest.Seconds())
	h.set("stored_bytes_per_input_byte", float64(stored)/float64(int64(len(lane.fastqText))+lane.sideBytes))
	lane.fastqText = nil

	queries := []query{
		{"tagcount", tagCountSQL, lane.checkTagCount},
		{"gene_expr", geneExprSQL, lane.checkGenes},
	}
	if err := h.runRounds(db, func(int) []query { return queries }, nil); err != nil {
		return err
	}
	h.common()
	h.engineCounters(m0, db.Metrics())
	return nil
}

// readRow normalizes one FASTQ record into the Read table's columns: the
// composite name machine_run:flowcell:lane:tile:x:y splits into numbers.
func readRow(id int64, rec fastq.Record) (sqltypes.Row, error) {
	_, rest, ok := strings.Cut(rec.Name, ":")
	parts := strings.Split(rest, ":")
	if !ok || len(parts) != 5 {
		return nil, fmt.Errorf("bad read name %q", rec.Name)
	}
	row := sqltypes.Row{sqltypes.NewInt(id)}
	for _, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad read name %q", rec.Name)
		}
		row = append(row, sqltypes.NewInt(v))
	}
	return append(row, sqltypes.NewString(rec.Seq), sqltypes.NewString(rec.Qual)), nil
}

// checkTagCount: the (freq, tag) pairs equal dge.BinTags, ranks are
// 1..n, and frequencies do not increase with rank.
func (l *dgeLane) checkTagCount(res *core.Result) error {
	if len(res.Rows) != len(l.tags) {
		return fmt.Errorf("%d tags, want %d", len(res.Rows), len(l.tags))
	}
	rows := append([]sqltypes.Row(nil), res.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I })
	for i, r := range rows {
		if r[0].I != int64(i+1) {
			return fmt.Errorf("rank %d at position %d", r[0].I, i+1)
		}
		if want := l.tags[r[2].S]; r[1].I != want {
			return fmt.Errorf("tag %s: freq %d, want %d", r[2].S, r[1].I, want)
		}
		if i > 0 && r[1].I > rows[i-1][1].I {
			return fmt.Errorf("rank %d has freq %d above rank %d's %d", i+1, r[1].I, i, rows[i-1][1].I)
		}
	}
	return nil
}

// checkGenes: per-gene read counts equal the Go-side join.
func (l *dgeLane) checkGenes(res *core.Result) error {
	if len(res.Rows) != len(l.genes) {
		return fmt.Errorf("%d genes, want %d", len(res.Rows), len(l.genes))
	}
	for _, r := range res.Rows {
		if want := l.genes[r[0].S]; r[1].I != want {
			return fmt.Errorf("gene %s: %d reads, want %d", r[0].S, r[1].I, want)
		}
	}
	return nil
}
