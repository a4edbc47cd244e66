package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// The catalogue is the single source of the benchmark's metric names,
// units and directions. BENCHMARK.json at the repository root and
// perfbench/catalog.json are both rendered from it (`--describe` and
// `--catalog`), and harness_test.go fails when either file drifts.

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is an acceptable metric or workload name:
// a leading letter or digit, then at most 63 of [A-Za-z0-9_.-].
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is an acceptable unit string.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// e2eMetric is a metric a user of the engine sees. Bound is the share of
// the parent commit's median by which it may get worse.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	About  string  `json:"-"`
}

// layerMetric is a counter or timing of one layer, read from outside the
// engine. Moves names the end-to-end metric and workload(s) an
// optimisation of this layer should show up in.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Layer  string `json:"-"`
	Moves  string `json:"-"`
	About  string `json:"-"`
}

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Data, Pool and Workload are the longer record kept in catalog.json.
	Data     string `json:"-"`
	Pool     string `json:"-"`
	Workload string `json:"-"`
}

// runSeconds is how long one run measures its timed phase.
const runSeconds = 20

var workloads = []workloadInfo{
	{
		Name:     "dge_lane",
		Why:      "repetitive 21-bp DGE lane (400k reads, ~28 MB FASTQ, 256 MB pool): PAGE-compressed heap ingest, scans, low-group aggregation, hash join",
		Data:     "400k Zipf-distributed 21-bp reads (about 680 unique tags), about 28 MB of FASTQ; Read heap with DATA_COMPRESSION = PAGE plus Tag and TagAlignment heaps",
		Pool:     "default 32768 pages (256 MB); the data fits",
		Workload: "parse FASTQ, load in 20k-row transactions, CHECKPOINT; then closed-loop rounds of Query 1 (tag counting) and the per-gene expression join",
	},
	{
		Name:     "reseq_lane",
		Why:      "near-unique 36-bp reseq lane (150k reads, 8 x 300 kb genome, 256 MB pool): clustered B-trees, merge join, sort, UDA/TVF, high-group aggregation",
		Data:     "150k 36-bp reads over an 8 x 300 kb genome with SNPs, about 15 MB of FASTQ; clustered Read, Alignment and AlignmentSorted B-trees",
		Pool:     "default 32768 pages (256 MB); the data fits",
		Workload: "parse FASTQ, load in 20k-row transactions, CHECKPOINT; then closed-loop rounds of merge-join count, sliding-window consensus, duplicate reads, position-ordered export and a 20 kb pivot window",
	},
	{
		Name:     "region_serving",
		Why:      "open-loop writer (200-row batches + CHECKPOINT) beside point/window readers on an indexed alignment heap larger than its 512-page (4 MB) pool",
		Data:     "190k alignment rows (about 15 MB of heap) with secondary indexes on a_r_id and (a_g_id, a_pos), over a 4 x 75 kb genome",
		Pool:     "512 pages (4 MB); the working set does not fit",
		Workload: "one writer session appends 200-row batches on a fixed 1 s schedule and runs CHECKPOINT after each; one reader session alternates a point lookup by read id with a 300-bp window COUNT(*)",
	},
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, "median of 3 set-ups in a run: generate the inputs and the oracle, open an empty database, create the schema"},
	{"stored_bytes_per_input_byte", "B/B", "lower", 0.02, "table and index file bytes after the closing CHECKPOINT per input FASTQ/row-text byte"},
	{"round_p50_ms", "ms", "lower", 0.25, "median round latency: the lanes' analysis round, or region_serving's reader cycle (point lookup + window count)"},
	{"peak_heap_mb", "MB", "lower", 0.2, "median over rounds of the round's largest GC-live heap, sampled every 10 ms during the timed phase only"},
}

const (
	lanes  = "dge_lane, reseq_lane"
	region = "region_serving"
)

var layerMetrics = []layerMetric{
	// end-to-end metrics reported but not bounded (see notes["end_to_end"])
	{"ingest_rows_per_s", "1/s", "higher", "e2e", "n/a: end to end", "rows loaded per second of FASTQ parse + InsertRows/COMMIT + index builds + closing CHECKPOINT"},
	{"round_p90_ms", "ms", "lower", "e2e", "n/a: end to end", "90th-percentile round latency"},
	{"commit_p50_ms", "ms", "lower", "e2e", "ingest_rows_per_s on " + lanes + "; round_p90_ms on " + region, "median commit latency: a 20k-row ingest transaction on the lanes; an open-loop 200-row batch timed from when it was due on region_serving"},
	{"commit_p90_ms", "ms", "lower", "e2e", "ingest_rows_per_s on " + lanes + "; round_p90_ms on " + region, "90th-percentile commit latency"},
	{"point_p50_ms", "ms", "lower", "e2e", "round_p50_ms on " + region, "median point lookup by read id, region_serving"},
	{"point_p90_ms", "ms", "lower", "e2e", "round_p90_ms on " + region, "90th-percentile point lookup by read id, region_serving"},
	{"window_p50_ms", "ms", "lower", "e2e", "round_p50_ms on " + region, "median 300-bp window COUNT(*), region_serving"},
	{"window_p90_ms", "ms", "lower", "e2e", "round_p90_ms on " + region, "90th-percentile 300-bp window COUNT(*), region_serving"},
	// fastq
	{"fastq.parse_ms", "ms", "lower", "fastq", "ingest_rows_per_s on " + lanes, "time inside the fastq.Reader.Next loop during ingest"},
	// core write path
	{"core.insert_ms", "ms", "lower", "core", "ingest_rows_per_s on all workloads; round_p90_ms (and commit_p90_ms) on " + region, "time inside Session.InsertRows, whole run"},
	{"core.checkpoint_ms", "ms", "lower", "core", "ingest_rows_per_s on all workloads; round_p90_ms (and commit_p90_ms) on " + region + ": CHECKPOINT takes db.mu exclusively and readers queue behind it", "median duration of a CHECKPOINT call"},
	{"core.checkpoint_count", "count", "lower", "core", "ingest_rows_per_s on all workloads; round_p90_ms on " + region, "checkpoint.count registry delta over the run"},
	{"core.vacuum_runs", "count", "lower", "core", "ingest_rows_per_s on all workloads; round_p90_ms on " + region, "vacuum.runs registry delta over the run"},
	// wal
	{"wal.syncs_per_commit", "1/commit", "lower", "wal", "ingest_rows_per_s on all workloads; commit_p50_ms on " + region, "wal.syncs registry delta per committed transaction"},
	{"wal.bytes_per_input_byte", "B/B", "lower", "wal", "ingest_rows_per_s on all workloads; commit_p50_ms on " + region, "WAL file growth between commits and the next CHECKPOINT, per input byte committed"},
	{"wal.commit_ms", "ms", "lower", "wal", "ingest_rows_per_s on all workloads; commit_p50_ms on " + region, "median time inside Session.Commit"},
	// sqlparse and plan
	{"sqlparse.parse_us", "us", "lower", "sqlparse", "round_p50_ms on " + region, "median sqlparse.Parse time per statement text"},
	{"plan.explain_us", "us", "lower", "plan", "round_p50_ms on " + region, "median Exec(\"EXPLAIN ...\") time per statement"},
	{"plan.path_picks.index", "1/op", "higher", "plan", "round_p50_ms on " + region, "planner.path_picks.index delta per planned statement (query or EXPLAIN) in the timed phase"},
	{"plan.path_picks.zonemap", "1/op", "lower", "plan", "round_p50_ms on " + region, "planner.path_picks.zonemap delta per planned statement (query or EXPLAIN) in the timed phase"},
	{"plan.path_picks.full", "1/op", "lower", "plan", "round_p50_ms on " + region, "planner.path_picks.full delta per planned statement (query or EXPLAIN) in the timed phase"},
	{"plan.window_misestimate_x", "x", "lower", "plan", "round_p50_ms on " + region, "EXPLAIN ANALYZE scan estimate over actual rows (or its inverse, whichever is >= 1) for the window predicate; traced run only"},
	// exec, per query
	{"exec.tagcount_ms", "ms", "lower", "exec", "round_p50_ms on dge_lane", "median Query 1 Exec time minus its EXPLAIN time"},
	{"exec.gene_expr_ms", "ms", "lower", "exec", "round_p50_ms on dge_lane", "median gene-expression join Exec time minus its EXPLAIN time"},
	{"exec.mergejoin_ms", "ms", "lower", "exec", "round_p50_ms on reseq_lane", "median merge-join count Exec time minus its EXPLAIN time"},
	{"exec.consensus_ms", "ms", "lower", "exec", "round_p50_ms on reseq_lane", "median AssembleConsensus Exec time minus its EXPLAIN time"},
	{"exec.dupreads_ms", "ms", "lower", "exec", "round_p50_ms on reseq_lane", "median duplicate-read GROUP BY Exec time minus its EXPLAIN time"},
	{"exec.sort_export_ms", "ms", "lower", "exec", "round_p50_ms on reseq_lane", "median position-ordered export Exec time minus its EXPLAIN time"},
	{"exec.pivot_window_ms", "ms", "lower", "exec", "round_p50_ms on reseq_lane", "median Query 3 pivot over a 20 kb window Exec time minus its EXPLAIN time"},
	{"exec.point_ms", "ms", "lower", "exec", "round_p50_ms on " + region, "median point-lookup Exec time minus its EXPLAIN time"},
	{"exec.window_ms", "ms", "lower", "exec", "round_p50_ms on " + region, "median window-count Exec time minus its EXPLAIN time"},
	// exec, registry deltas
	{"exec.join.build_rows", "1/round", "lower", "exec", "round_p50_ms on " + lanes, "exec.join.build_rows delta per round"},
	{"exec.join.probe_rows", "1/round", "lower", "exec", "round_p50_ms on " + lanes, "exec.join.probe_rows delta per round"},
	{"exec.join.bloom_drop_ratio", "ratio", "higher", "exec", "round_p50_ms on dge_lane", "exec.join.bloom_drops over exec.join.bloom_checks in the timed phase"},
	{"exec.join.spilled_partitions", "1/round", "lower", "exec", "round_p50_ms on " + lanes, "exec.join.spilled_partitions delta per round"},
	{"exec.agg.spilled_rows", "1/round", "lower", "exec", "round_p50_ms on reseq_lane", "exec.agg.spilled_rows delta per round"},
	{"exec.agg.spill_recursions", "1/round", "lower", "exec", "round_p50_ms on reseq_lane", "exec.agg.spill_recursions delta per round"},
	{"exec.sort.runs", "1/round", "lower", "exec", "round_p50_ms on reseq_lane", "exec.sort.runs delta per round"},
	{"exec.sort.spilled_bytes", "B/round", "lower", "exec", "round_p50_ms on reseq_lane", "exec.sort.spilled_bytes delta per round"},
	// storage
	{"storage.pool.hit_rate", "ratio", "higher", "storage", "round_p50_ms, round_p90_ms on " + region + " (stays near 1 on the lanes)", "pool hits over hits + misses in the timed phase"},
	{"storage.pool.misses_per_op", "1/op", "lower", "storage", "round_p50_ms on " + region + " (near 0 on the lanes)", "pool.misses delta per query in the timed phase"},
	{"storage.pool.evictions_per_op", "1/op", "lower", "storage", "round_p50_ms on " + region + " (near 0 on the lanes)", "pool.evictions delta per query in the timed phase"},
	{"storage.integrity.pages_verified_per_op", "1/op", "lower", "storage", "round_p50_ms on " + region + " (near 0 on the lanes)", "integrity.pages_verified delta per query in the timed phase"},
	{"storage.scan.zone_skipped_pages_per_op", "1/op", "higher", "storage", "round_p50_ms on " + region, "scan.zone_skipped_pages delta per query in the timed phase"},
	{"storage.scan.values_decoded_per_row", "1/row", "lower", "storage", "round_p50_ms on dge_lane", "scan.values_decoded over scan.rows in the timed phase"},
	{"storage.scan.dict_entries_per_round", "1/round", "lower", "storage", "round_p50_ms on dge_lane", "scan.dict_entries_decoded delta per round"},
	{"storage.table_bytes.read", "B", "lower", "storage", "stored_bytes_per_input_byte on " + lanes, "Read table file bytes after the closing CHECKPOINT"},
	{"storage.table_bytes.tag", "B", "lower", "storage", "stored_bytes_per_input_byte on dge_lane", "Tag table file bytes after the closing CHECKPOINT"},
	{"storage.table_bytes.tagalignment", "B", "lower", "storage", "stored_bytes_per_input_byte on dge_lane", "TagAlignment table file bytes after the closing CHECKPOINT"},
	{"storage.table_bytes.alignment", "B", "lower", "storage", "stored_bytes_per_input_byte on reseq_lane, " + region, "Alignment table file bytes after the closing CHECKPOINT"},
	{"storage.table_bytes.alignmentsorted", "B", "lower", "storage", "stored_bytes_per_input_byte on reseq_lane", "AlignmentSorted table file bytes after the closing CHECKPOINT"},
	{"storage.index_bytes", "B", "lower", "storage", "stored_bytes_per_input_byte on " + region, "secondary-index file bytes after the closing CHECKPOINT"},
	// udf / consensus
	{"consensus.library_ms", "ms", "lower", "consensus", "round_p50_ms on reseq_lane", "median consensus.SlidingCaller time over the same alignments, outside the database; traced run only"},
	{"consensus.db_overhead_x", "x", "lower", "consensus", "round_p50_ms on reseq_lane", "exec.consensus_ms over consensus.library_ms; traced run only"},
	// Go runtime
	{"runtime.alloc_mb_per_round", "MB/round", "lower", "runtime", "round_p50_ms, peak_heap_mb on " + lanes, "MemStats.TotalAlloc delta per round in the timed phase"},
	{"runtime.gc_cycles_per_round", "1/round", "lower", "runtime", "round_p50_ms, peak_heap_mb on " + lanes, "MemStats.NumGC delta per round in the timed phase"},
	// load generator and region_serving latencies by operation
	{"bench.writer_late_ms_p90", "ms", "lower", "bench", "commit_p90_ms and round_p90_ms on " + region, "how late the open-loop writer issued its batches, p90"},
	{"bench.failed_ops_ratio", "ratio", "lower", "bench", "every metric on every workload", "failed or wrong-result operations over attempted operations"},
	// traced run: per-layer self time and tracing overhead
	{"trace.self_ms.fastq", "ms", "lower", "trace", "ingest_rows_per_s on " + lanes, "self time of fastq spans"},
	{"trace.self_ms.core", "ms", "lower", "trace", "ingest_rows_per_s on all workloads", "self time of core spans (InsertRows, CHECKPOINT, CREATE INDEX)"},
	{"trace.self_ms.wal", "ms", "lower", "trace", "commit_p50_ms on all workloads", "self time of wal spans (Session.Commit)"},
	{"trace.self_ms.sqlparse", "ms", "lower", "trace", "round_p50_ms on " + region, "self time of sqlparse spans"},
	{"trace.self_ms.plan", "ms", "lower", "trace", "round_p50_ms on " + region, "self time of plan spans (EXPLAIN, EXPLAIN ANALYZE)"},
	{"trace.self_ms.exec", "ms", "lower", "trace", "round_p50_ms on all workloads", "self time of exec spans (query Exec)"},
	{"trace.self_ms.storage", "ms", "lower", "trace", "round_p50_ms on " + region, "self time of storage spans (VerifyIntegrity, file-size walk)"},
	{"trace.self_ms.consensus", "ms", "lower", "trace", "round_p50_ms on reseq_lane", "self time of consensus spans (library SlidingCaller)"},
	{"trace.self_ms.runtime", "ms", "lower", "trace", "round_p50_ms, peak_heap_mb on all workloads", "self time of runtime spans (GC stop-the-world pauses)"},
	{"trace.self_ms.bench", "ms", "lower", "trace", "none; harness time between layer calls", "self time of round, ingest and batch spans"},
	{"trace.spans", "count", "lower", "trace", "none", "spans recorded by the traced run"},
	{"trace.overhead_pct", "%", "lower", "trace", "none", "traced-minus-untraced median round time, as a percentage of the untraced median"},
}

// traceLayers are the layers the traced run reports self time for.
var traceLayers = []string{"fastq", "core", "wal", "sqlparse", "plan", "exec", "storage", "consensus", "runtime", "bench"}

// notes are the standing facts later performance work cites by metric
// name; they live in catalog.json.
var notes = map[string]string{
	"load":        "one process; at most two client goroutines (nproc on the reference box is 2): one on the lanes, a writer and a reader on region_serving",
	"dop":         "engine DOP = runtime.NumCPU(); each run prints GOMAXPROCS, NumCPU and DOP (all 2 on the 2-vCPU reference VM)",
	"flush":       "lanes: one transaction per 20k rows and one CHECKPOINT after the load; region_serving: CHECKPOINT after every 200-row writer batch, the same on both sides of any comparison",
	"stats":       "no ANALYZE is run: the planner sees the defaults a loader gets",
	"percentiles": "linear interpolation between closest ranks; a p90 has ten samples beyond it only from 100 samples up, so the lanes' round_p90_ms (13-17 rounds in a 20 s run), region_serving's (70-90 reader cycles) and every commit_p90_ms (20-24 commits) rest on fewer; each run prints its sample counts",
	"end_to_end":  "the bounded end-to-end metrics are the ones every workload reports, never 0, whose 10-seed spread stayed well inside 0.25 on the reference VM; ingest_rows_per_s (spread up to 0.245 on dge_lane) and round_p90_ms (0.278 on dge_lane, during CPU steal of 5-22%) came too close, commit_p50_ms spread 0.25 on region_serving, point_* and window_* exist only on region_serving: all are per-layer entries of layer e2e, printed on every run and not bounded; bench.failed_ops_ratio is 0 on a correct run, and the result line's failed and attempted carry it",
	"noise":       "on the 2-vCPU reference VM most run-to-run spread is machine noise that lasts a whole run (one seed repeated varies by up to 25% in ingest); each run prints the CPU steal it saw",
	"trace":       "--trace 1 alternates traced and untraced rounds (reader cycles on region_serving); traced rounds add Parse and EXPLAIN calls and spans, and trace.overhead_pct compares the Exec time of the two kinds",
	"spans":       "spans are written at exit to .bench_out/trace_<workload>_<seed>.json; storage self time covers the harness's direct storage calls only, and storage work inside a query is in its exec span (see the storage.* counters)",
}

// anomalies are the defects and oddities measured before and with this
// benchmark; later performance work cites them by metric.
var anomalies = []map[string]string{
	{"metric": "round_p50_ms", "workload": "dge_lane", "note": "first measured without the benchmark: Query 1 decodes 4 values per row (1.6M per query) although it reads one column; here storage.scan.values_decoded_per_row reads 5 over a round of Query 1 and the gene-expression join"},
	{"metric": "ingest_rows_per_s", "workload": "dge_lane", "note": "first measured without the benchmark: ingest is about 97% InsertRows and about 3% FASTQ parsing; here core.insert_ms is 6.6-8.6 s of a 7-9 s ingest and fastq.parse_ms 0.13-0.25 s"},
	{"metric": "round_p50_ms", "workload": "region_serving", "note": "every reader query picks the zone-map path and none an index (plan.path_picks.zonemap = 1, plan.path_picks.index = 0); a first measurement without the benchmark estimated the 300-bp window at 37,001 rows against about 150 actual, here plan.window_misestimate_x is about 10; each reader op misses the pool about 1,800 times (storage.pool.misses_per_op)"},
	{"metric": "bench.failed_ops_ratio", "workload": "region_serving", "note": "known defect: with one CHECKPOINT per 10 writer batches, reader statements fail with 'buffer pool exhausted ... checkpoint required' because the pool never evicts dirty pages; the benchmark checkpoints after every batch (its stated flush policy, not a workaround to retune) and counts every failure that does occur"},
}

// describe renders BENCHMARK.json: exactly the keys the benchmark
// contract names.
func describe() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	out := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []e2eMetric   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   e2eMetrics,
		PerLayer:   layerMetrics,
	}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.Name, w.Why})
	}
	return marshal(out)
}

// catalog renders catalog.json: every metric with its layer, what it
// measures and what it should move, plus workloads, policies and the
// anomalies recorded before and with the benchmark.
func catalog() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
		About  string  `json:"about"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
		Layer  string `json:"layer"`
		Moves  string `json:"moves"`
		About  string `json:"about"`
	}
	type wl struct {
		Name     string `json:"name"`
		Why      string `json:"why"`
		Data     string `json:"data"`
		Pool     string `json:"pool"`
		Workload string `json:"workload"`
	}
	out := struct {
		Workloads []wl                `json:"workloads"`
		EndToEnd  []e2e               `json:"end_to_end"`
		PerLayer  []layer             `json:"per_layer"`
		Notes     map[string]string   `json:"notes"`
		Anomalies []map[string]string `json:"anomalies"`
	}{Notes: notes, Anomalies: anomalies}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl(w))
	}
	for _, m := range e2eMetrics {
		out.EndToEnd = append(out.EndToEnd, e2e(m))
	}
	for _, m := range layerMetrics {
		out.PerLayer = append(out.PerLayer, layer(m))
	}
	return marshal(out)
}

func marshal(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkCatalog validates every name and unit and rejects duplicates.
func checkCatalog() error {
	seen := map[string]bool{}
	check := func(name, unit string) error {
		if !validName(name) {
			return fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]", name)
		}
		if !validUnit(unit) {
			return fmt.Errorf("metric %s: bad unit %q", name, unit)
		}
		if seen[name] {
			return fmt.Errorf("metric %s listed twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, m := range e2eMetrics {
		if err := check(m.Name, m.Unit); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range layerMetrics {
		if err := check(m.Name, m.Unit); err != nil {
			return err
		}
	}
	for _, w := range workloads {
		if !validName(w.Name) || seen[w.Name] {
			return fmt.Errorf("bad workload name %q", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	return nil
}
