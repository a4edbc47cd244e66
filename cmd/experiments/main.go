// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints paper-style result tables. The end-to-end
// benchmark is declared in BENCHMARK.json; perfbench/catalog.json
// describes its workloads and metrics.
//
// Usage:
//
//	experiments                  run everything at the default scale
//	experiments -run table1      one experiment: table1, table2, wrap,
//	                             query1, consensus, plans, ablations
//	experiments -dge-reads N -reseq-reads N   scale knobs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/bench"
)

func main() {
	run := flag.String("run", "all", "experiment: all, table1, table2, wrap, query1, consensus, plans, ablations, join, sortagg, stats, txn, vector, fault, index, obs")
	dgeReads := flag.Int("dge-reads", 400_000, "DGE lane size (level-1 reads)")
	reseqReads := flag.Int("reseq-reads", 150_000, "re-sequencing lane size")
	seed := flag.Int64("seed", 42, "generator seed")
	work := flag.String("work", "", "work directory (default: temp, removed on exit)")
	joinOut := flag.String("join-out", "BENCH_join.json", "output path for the join benchmark JSON")
	sortaggOut := flag.String("sortagg-out", "BENCH_sortagg.json", "output path for the sort/aggregate benchmark JSON")
	sortaggRows := flag.Int("sortagg-rows", 0, "sort/aggregate benchmark table size (0 = default)")
	statsOut := flag.String("stats-out", "BENCH_stats.json", "output path for the statistics benchmark JSON")
	statsRows := flag.Int("stats-rows", 0, "statistics benchmark fact-table size (0 = default)")
	txnOut := flag.String("txn-out", "BENCH_txn.json", "output path for the transaction benchmark JSON")
	txnCount := flag.Int("txn-txns", 0, "transaction benchmark: commits per writer (0 = default)")
	vectorOut := flag.String("vector-out", "BENCH_vector.json", "output path for the vectorized-scan benchmark JSON")
	vectorRows := flag.Int("vector-rows", 0, "vectorized-scan benchmark table size (0 = default)")
	faultOut := flag.String("fault-out", "BENCH_fault.json", "output path for the checksum-overhead benchmark JSON")
	faultRows := flag.Int("fault-rows", 0, "checksum-overhead benchmark table size (0 = default)")
	indexOut := flag.String("index-out", "BENCH_index.json", "output path for the secondary-index benchmark JSON")
	indexRows := flag.Int("index-rows", 0, "secondary-index benchmark table size (0 = default)")
	obsOut := flag.String("obs-out", "BENCH_obs.json", "output path for the instrumentation-overhead benchmark JSON")
	obsRows := flag.Int("obs-rows", 0, "instrumentation-overhead benchmark table size (0 = default)")
	flag.Parse()

	workDir := *work
	if workDir == "" {
		var err error
		workDir, err = os.MkdirTemp("", "experiments-*")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(workDir)
	}
	fmt.Printf("== Reproduction of 'Data Management for High-Throughput Genomics' (CIDR'09) ==\n")
	fmt.Printf("host: %d cores; DGE lane: %d reads; re-sequencing lane: %d reads\n\n",
		runtime.NumCPU(), *dgeReads, *reseqReads)

	want := func(name string) bool { return *run == "all" || *run == name }

	var dge *bench.DGEDataset
	var reseq *bench.ResequencingDataset
	needDGE := want("table1") || want("wrap") || want("query1") || want("plans") || want("ablations")
	needReseq := want("table2") || want("consensus") || want("ablations")
	if needDGE {
		fmt.Printf("building DGE dataset (%d reads)...\n", *dgeReads)
		var err error
		dge, err = bench.BuildDGE(*dgeReads, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %d reads, %d unique tags, %d alignments\n\n", len(dge.Reads), len(dge.Tags), len(dge.Alignments))
	}
	if needReseq {
		fmt.Printf("building re-sequencing dataset (%d reads)...\n", *reseqReads)
		var err error
		reseq, err = bench.Build1000G(*reseqReads, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %d reads, %d alignments\n\n", len(reseq.Reads), len(reseq.Alignments))
	}

	if want("table1") {
		fmt.Println("---- [T1] Table 1: storage efficiency, digital gene expression ----")
		rows, err := bench.StorageExperimentDGE(dge, workDir)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.RenderStorageTable("storage bytes per physical design:", rows))
	}
	if want("table2") {
		fmt.Println("---- [T2] Table 2: storage efficiency, 1000 Genomes ----")
		rows, err := bench.StorageExperiment1000G(reseq, workDir)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.RenderStorageTable("storage bytes per physical design:", rows))
		vc, sq, err := bench.SequenceUDTExperiment(reseq.Reads, workDir)
		if err != nil {
			fail(err)
		}
		fmt.Printf("[X1] SEQUENCE UDT ablation (Section 5.1.2 'bit-encoding ... about a quarter'):\n")
		fmt.Printf("  VARCHAR sequences: %s; SEQUENCE (2-bit packed): %s (%.2fx)\n\n",
			bench.FormatBytes(vc), bench.FormatBytes(sq), float64(sq)/float64(vc))
	}
	if want("wrap") {
		fmt.Println("---- [L52] Section 5.2: FileStream wrapper scan performance ----")
		rows, err := bench.WrapExperiment(dge.ReadsFASTQ, workDir)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.RenderWrapTable(
			fmt.Sprintf("SELECT COUNT(*) over a %s FASTQ FileStream:", bench.FormatBytes(int64(len(dge.ReadsFASTQ)))), rows))
	}
	if want("query1") {
		fmt.Println("---- [Q1/F7/F8] Section 5.3.2: Query 1, script vs declarative SQL ----")
		res, err := bench.Query1Experiment(dge, workDir, runtime.NumCPU())
		if err != nil {
			fail(err)
		}
		fmt.Printf("interpreted script (paper's Perl, 10 min): %8.2fs  [%s]\n",
			res.InterpretedElapsed.Seconds(), res.InterpretedTrace)
		fmt.Printf("same script compiled (Go, ablation)      : %8.2fs\n",
			res.CompiledElapsed.Seconds())
		fmt.Printf("parallel SQL (paper: 44 s)               : %8.2fs  -> speedup %.1fx over interpreted\n",
			res.SQLElapsed.Seconds(), res.Speedup)
		fmt.Printf("buffer pool during SQL run: %.1f%% hit rate (%d hits, %d misses)\n",
			100*res.SQLPoolStats.HitRate(), res.SQLPoolStats.Hits, res.SQLPoolStats.Misses)
		fmt.Printf("unique tags found by all three: %d\n\n", res.UniqueTags)
		fmt.Println("[F7] script CPU profile (one core, read-then-process):")
		fmt.Print(bench.RenderCPUTrace(res.ScriptCPU, 60))
		fmt.Printf("  average cores busy: %.2f\n\n", bench.AverageBusy(res.ScriptCPU))
		fmt.Println("[F8] SQL CPU profile (all cores):")
		fmt.Print(bench.RenderCPUTrace(res.SQLCPU, 60))
		fmt.Printf("  average cores busy: %.2f\n\n", bench.AverageBusy(res.SQLCPU))
		fmt.Println("[F9] Query 1 parallel plan:")
		fmt.Println(res.SQLPlan)
	}
	if want("consensus") {
		fmt.Println("---- [Q3/F10] Section 5.3.3: merge join and consensus calling ----")
		res, err := bench.ConsensusExperiment(reseq, workDir, runtime.NumCPU())
		if err != nil {
			fail(err)
		}
		fmt.Printf("alignments joined with reads (warm pool): %d in %.3fs = %.2fM alignments/s (paper: ~1.6M/s)\n",
			res.Alignments, res.MergeJoinElapsed.Seconds(), res.MergeJoinRate/1e6)
		fmt.Printf("buffer pool during join: %.1f%% hit rate (%d hits, %d misses)\n\n",
			100*res.MergeJoinPoolStats.HitRate(), res.MergeJoinPoolStats.Hits, res.MergeJoinPoolStats.Misses)
		fmt.Println("[F10] merge join plan:")
		fmt.Println(res.MergeJoinPlan)
		fmt.Printf("consensus, pivot plan (Query 3 as written): %.3fs\n", res.PivotElapsed.Seconds())
		fmt.Printf("consensus, sliding-window UDA:              %.3fs  (%.1fx faster)\n",
			res.SlidingElapsed.Seconds(), float64(res.PivotElapsed)/float64(res.SlidingElapsed))
		fmt.Printf("results identical: %v\n\n", res.ConsensusMatch)
		fmt.Println("sliding-window plan:")
		fmt.Println(res.SlidingPlan)
	}
	if want("plans") {
		fmt.Println("---- [F9] plan shapes ----")
		res, err := bench.Query1Experiment(dge, workDir+"/plans", 2)
		if err != nil {
			fail(err)
		}
		fmt.Println("Query 1 plan (parallel hash aggregate + ranking):")
		fmt.Println(res.SQLPlan)
	}
	if want("ablations") {
		fmt.Println("---- design-choice ablations ----")
		sizes := []int{64 << 10, 1 << 20, 8 << 20}
		rows, err := bench.ChunkSizeAblation(dge.ReadsFASTQ, workDir, sizes)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.RenderWrapTable("chunk size of the paging parser:", rows))

		dops := []int{1, 2}
		if runtime.NumCPU() > 2 {
			dops = append(dops, runtime.NumCPU())
		}
		times, err := bench.Query1DOPAblation(dge, workDir, dops)
		if err != nil {
			fail(err)
		}
		fmt.Println("Query 1 by degree of parallelism (warm):")
		keys := make([]int, 0, len(times))
		for k := range times {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		base := times[keys[0]]
		for _, k := range keys {
			fmt.Printf("  DOP %d: %8.3fs (%.2fx)\n", k, times[k].Seconds(), float64(base)/float64(times[k]))
		}
		fmt.Println()
	}
	if want("join") {
		fmt.Println("---- partitioned hash join: DOP scaling, in-memory vs forced spill ----")
		cfg := bench.DefaultJoinBenchConfig()
		res, err := bench.JoinExperiment(filepath.Join(workDir, "join"), cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("build %d rows ⋈ probe %d rows over %d keys (GOMAXPROCS %d)\n",
			res.BuildRows, res.ProbeRows, res.KeySpace, res.GOMAXPROCS)
		render := func(label string, runs []bench.JoinBenchRun) {
			fmt.Printf("%s:\n", label)
			base := runs[0].ElapsedMS
			for _, r := range runs {
				fmt.Printf("  DOP %d: %9.1f ms (%.2fx)  rows=%d spilled_parts=%d recursions=%d\n",
					r.DOP, r.ElapsedMS, base/r.ElapsedMS, r.Rows, r.SpilledPartitions, r.SpillRecursions)
			}
		}
		render("warm in-memory", res.InMemory)
		render(fmt.Sprintf("forced spill (budget %s)", bench.FormatBytes(res.SpillBudget)), res.Spill)
		if err := res.WriteJSON(*joinOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n\n", *joinOut)
		fmt.Println("partitioned join plan:")
		fmt.Println(res.Plan)
	}
	if want("sortagg") {
		fmt.Println("---- external sort & spillable aggregate: DOP scaling, in-memory vs forced spill ----")
		cfg := bench.DefaultSortAggBenchConfig()
		if *sortaggRows > 0 {
			cfg.Rows = *sortaggRows
			cfg.KeySpace = *sortaggRows / 4
			cfg.Groups = *sortaggRows / 6
		}
		res, err := bench.SortAggExperiment(filepath.Join(workDir, "sortagg"), cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d rows, %d sort keys, %d groups (GOMAXPROCS %d)\n",
			res.Rows, res.KeySpace, res.Groups, res.GOMAXPROCS)
		render := func(label string, runs []bench.SortAggRun) {
			fmt.Printf("%s:\n", label)
			base := runs[0].ElapsedMS
			for _, r := range runs {
				fmt.Printf("  DOP %d: %9.1f ms (%.2fx)  rows=%d sort_runs=%d sort_spilled=%s agg_parts=%d agg_rows=%d\n",
					r.DOP, r.ElapsedMS, base/r.ElapsedMS, r.Rows, r.SortRuns,
					bench.FormatBytes(r.SortSpilledBytes), r.AggSpilledPartitions, r.AggSpilledRows)
			}
		}
		render("ORDER BY, warm in-memory", res.SortInMemory)
		render(fmt.Sprintf("ORDER BY, forced spill (budget %s)", bench.FormatBytes(res.SortSpillBudget)), res.SortSpill)
		render("GROUP BY, warm in-memory", res.AggInMemory)
		render(fmt.Sprintf("GROUP BY, forced spill (budget %s)", bench.FormatBytes(res.AggSpillBudget)), res.AggSpill)
		if err := res.WriteJSON(*sortaggOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n\n", *sortaggOut)
		fmt.Println("parallel sort plan:")
		fmt.Println(res.SortPlan)
		fmt.Println("partial/final aggregate plan:")
		fmt.Println(res.AggPlan)
	}
	if want("stats") {
		fmt.Println("---- table statistics: ANALYZE-driven build side, Bloom filter, spill pre-partitioning ----")
		cfg := bench.DefaultStatsBenchConfig()
		if *statsRows > 0 {
			cfg.BigRows = *statsRows
			cfg.DimRows = *statsRows / 5
			cfg.KeySpace = *statsRows / 2
			cfg.FilterBound = int64(*statsRows / 40)
			cfg.JoinMemoryBudget = int64(cfg.DimRows) * 140 / 5 // wrong build side ~5x over budget
		}
		res, err := bench.StatsExperiment(filepath.Join(workDir, "stats"), cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("big %d rows (filter v < %d) ⋈ dim %d rows over %d keys, join budget %s (GOMAXPROCS %d)\n",
			res.BigRows, res.FilterBound, res.DimRows, res.KeySpace,
			bench.FormatBytes(res.JoinMemoryBudget), res.GOMAXPROCS)
		fmt.Printf("ANALYZE (both tables): %.1f ms\n", res.AnalyzeMS)
		for _, r := range res.Runs {
			fmt.Printf("  analyzed=%-5v bloom=%-5v DOP %d: %9.1f ms  rows=%d bloom_drops=%d spilled_parts=%d spilled_probe=%d\n",
				r.Analyzed, r.Bloom, r.DOP, r.ElapsedMS, r.Rows, r.BloomDrops, r.SpilledPartitions, r.SpilledProbeRows)
		}
		fmt.Printf("DOP-%d speedups: build-side flip %.2fx, bloom %.2fx\n",
			maxOf(cfg.DOPs), res.BuildFlipSpeedupDOP4, res.BloomSpeedupDOP4)
		if err := res.WriteJSON(*statsOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n\n", *statsOut)
		fmt.Println("plan before ANALYZE:")
		fmt.Println(res.PlanBefore)
		fmt.Println("plan after ANALYZE:")
		fmt.Println(res.PlanAfter)
	}
	if want("txn") {
		fmt.Println("---- MVCC transactions: pipelined group commit, snapshot scans under write load ----")
		cfg := bench.DefaultTxnBenchConfig()
		if *txnCount > 0 {
			cfg.TxnsPerWriter = *txnCount
		}
		res, err := bench.TxnExperiment(filepath.Join(workDir, "txn"), cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d txns/writer x %d rows/txn, concurrent COUNT(*) reader (GOMAXPROCS %d)\n",
			res.TxnsPerWriter, res.BatchRows, res.GOMAXPROCS)
		for _, r := range res.Runs {
			fmt.Printf("  writers %d: %8.0f commits/s  (%d commits in %.1f ms, %.2f fsyncs/commit, %d scans @ %.2f ms)\n",
				r.Writers, r.CommitsPerSec, r.Commits, r.ElapsedMS, r.SyncsPerCommit, r.Scans, r.MeanScanMS)
		}
		fmt.Printf("best multi-writer speedup vs 1 writer: %.2fx\n", res.SpeedupBest)
		if err := res.WriteJSON(*txnOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n\n", *txnOut)
	}
	if want("vector") {
		fmt.Println("---- vectorized batch execution: row vs batch filter scan, compressed vs decompressed predicates ----")
		cfg := bench.DefaultVectorBenchConfig()
		if *vectorRows > 0 {
			cfg.Rows = *vectorRows
		}
		res, err := bench.VectorExperiment(filepath.Join(workDir, "vector"), cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d rows, %d-entry flowcell dictionary, DOP 1, best of %d (GOMAXPROCS %d)\n",
			res.Rows, res.Flows, res.Iters, res.GOMAXPROCS)
		for _, r := range res.Runs {
			fmt.Printf("  %-10s %-4s: %9.1f ms  %7.2fM rows/s  matches=%d batches=%d cells_decoded=%d dict_entries=%d\n",
				r.Engine, r.Compression, r.ElapsedMS, r.RowsPerSec/1e6,
				r.Matches, r.Batches, r.ValuesDecoded, r.DictEntriesDecoded)
		}
		fmt.Printf("vectorized over row (dictionary pages): %.2fx; code-compare over decoded-compare: %.2fx\n",
			res.SpeedupVectorized, res.SpeedupCompressed)
		if err := res.WriteJSON(*vectorOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n\n", *vectorOut)
		fmt.Println("vectorized filter-scan plan:")
		fmt.Println(res.PlanVectorized)
	}
	if want("fault") {
		fmt.Println("---- page-checksum overhead: warm (pool hits) vs cold (verified misses) vectorized scan ----")
		cfg := bench.DefaultFaultBenchConfig()
		if *faultRows > 0 {
			cfg.Rows = *faultRows
		}
		res, err := bench.FaultExperiment(filepath.Join(workDir, "fault"), cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d rows, DOP 1, best of %d (GOMAXPROCS %d)\n", res.Rows, res.Iters, res.GOMAXPROCS)
		for _, r := range res.Runs {
			fmt.Printf("  checksums=%-5v: warm %8.2f ms   cold %8.2f ms   pages_verified=%d matches=%d\n",
				r.Checksums, r.WarmMS, r.ColdMS, r.PagesVerified, r.Matches)
		}
		fmt.Printf("warm overhead %.2f%% (budget < 3%%); cold (every page CRC-verified) %.2f%%\n",
			res.WarmOverheadPct, res.ColdOverheadPct)
		if err := res.WriteJSON(*faultOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n\n", *faultOut)
	}
	if want("obs") {
		fmt.Println("---- always-on instrumentation overhead: warm vectorized scan, counters on vs off ----")
		cfg := bench.DefaultObsBenchConfig()
		if *obsRows > 0 {
			cfg.Rows = *obsRows
		}
		res, err := bench.ObsExperiment(filepath.Join(workDir, "obs"), cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d rows, DOP 1, best of %d (GOMAXPROCS %d)\n", res.Rows, res.Iters, res.GOMAXPROCS)
		for _, r := range res.Runs {
			fmt.Printf("  instrumented=%-5v: warm %8.2f ms   probe_spill=%d B  query_count=%d  matches=%d\n",
				r.Instrumented, r.WarmMS, r.ProbeSpillBytes, r.QueryCount, r.Matches)
		}
		fmt.Printf("warm overhead %.2f%% (budget < 3%%)\n", res.WarmOverheadPct)
		if err := res.WriteJSON(*obsOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n\n", *obsOut)
	}
	if want("index") {
		fmt.Println("---- secondary index & zone maps: point/range probes vs DOP-4 heap scan ----")
		cfg := bench.DefaultIndexBenchConfig()
		if *indexRows > 0 {
			cfg.Rows = *indexRows
		}
		res, err := bench.IndexExperiment(filepath.Join(workDir, "index"), cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d rows, DOP 4, best of %d (GOMAXPROCS %d); CREATE INDEX build: %.1f ms\n",
			res.Rows, res.Iters, res.GOMAXPROCS, res.BuildMS)
		for _, q := range res.Queries {
			fmt.Printf("  %-15s: heap %9.3f ms   indexed %9.3f ms  (%.1fx)  matches=%d  [%s]\n",
				q.Name, q.HeapMS, q.IndexMS, q.Speedup, q.Matches, q.Path)
		}
		fmt.Printf("point lookup speedup %.1fx (floor 10x); zone maps skipped %.1f%% of pages (%d/%d kept, floor 50%%)\n",
			res.PointSpeedup, res.ZoneSkipPct, res.ZonePagesKept, res.ZonePagesTotal)
		if err := res.WriteJSON(*indexOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n\n", *indexOut)
		fmt.Println("point-lookup plan (indexed side):")
		fmt.Println(res.PointPlan)
	}
	fmt.Println(strings.Repeat("=", 60))
	fmt.Println("done")
}

func maxOf(ns []int) int {
	m := 0
	for _, n := range ns {
		if n > m {
			m = n
		}
	}
	return m
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
