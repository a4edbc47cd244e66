// Command perfbench is the repository's end-to-end benchmark. It
// generates one of three genomics workloads from a seed (dge_lane,
// reseq_lane, region_serving), drives core.Database through its public
// API, checks every result against an oracle computed in Go from the
// generated inputs, and prints each metric by name with its unit. The
// last line of standard output is one JSON object: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
//
//	go run . --workload dge_lane --seed 42 --seconds 20 --trace 0
//
// --describe prints BENCHMARK.json and --catalog prints catalog.json,
// both rendered from the metric catalogue in catalog.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "dge_lane, reseq_lane or region_serving")
	seed := flag.Int64("seed", 42, "input generation seed")
	seconds := flag.Int("seconds", runSeconds, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", ".bench_out", "directory for databases and span dumps")
	desc := flag.Bool("describe", false, "print BENCHMARK.json and exit")
	cat := flag.Bool("catalog", false, "print catalog.json and exit")
	flag.Parse()

	if err := checkCatalog(); err != nil {
		fatal(err)
	}
	if *desc || *cat {
		render := describe
		if *cat {
			render = catalog
		}
		b, err := render()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	run, ok := map[string]func(*harness) error{
		"dge_lane":       runDGE,
		"reseq_lane":     runReseq,
		"region_serving": runRegion,
	}[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	h := newHarness(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d NumCPU=%d DOP=%d\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.NumCPU())
	steal0, total0 := cpuSteal()
	err := run(h)
	os.RemoveAll(h.dbDir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		fmt.Printf("cpu steal during the run: %.1f%% (hypervisor time taken from this machine)\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if ok := h.report(); !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric with its unit, the failures, and the result
// line, and reports whether every operation succeeded with a correct
// result.
func (h *harness) report() bool {
	attempted, failed := h.attempted.Load(), h.failed.Load()
	h.set("bench.failed_ops_ratio", ratio(float64(failed), float64(attempted)))
	traced := h.rec != nil
	if traced {
		rows, path, err := h.traceMetrics()
		if err != nil {
			h.op(fmt.Errorf("span dump: %w", err))
		}
		fmt.Printf("\nper-layer self time (traced run; spans in %s)\n", path)
		writeLayerTable(os.Stdout, rows)
		fmt.Printf("tracing overhead: %.2f%% of the untraced median round\n", h.values["trace.overhead_pct"])
		attempted, failed = h.attempted.Load(), h.failed.Load()
	}

	fmt.Printf("\n%-42s %16s  %s\n", "metric", "value", "unit")
	line := map[string]metricValue{}
	for _, m := range e2eMetrics {
		v := h.values[m.Name]
		fmt.Printf("%-42s %16.4f  %s\n", m.Name, v, m.Unit)
		if !traced {
			line[m.Name] = metricValue{v, m.Unit}
		}
	}
	for _, m := range layerMetrics {
		v := h.values[m.Name]
		fmt.Printf("%-42s %16.4f  %s\n", m.Name, v, m.Unit)
		if traced {
			line[m.Name] = metricValue{v, m.Unit}
		}
	}
	h.mu.Lock()
	fmt.Printf("rounds=%d (p90 from %d beyond) commits=%d (p90 from %d beyond)\n",
		len(h.rounds), beyond(len(h.rounds), 0.9), len(h.commitLat), beyond(len(h.commitLat), 0.9))
	h.mu.Unlock()
	var extra []string
	for k := range h.values {
		if !known(k) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("%-42s %16.4f  (not in catalogue)\n", k, h.values[k])
	}
	fmt.Printf("failed_ops_ratio=%g (%d of %d operations)\n", h.values["bench.failed_ops_ratio"], failed, attempted)
	for _, p := range h.problems {
		fmt.Println("FAILED:", p)
	}
	correct := failed == 0
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, line})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	return correct
}

func known(name string) bool {
	for _, m := range e2eMetrics {
		if m.Name == name {
			return true
		}
	}
	for _, m := range layerMetrics {
		if m.Name == name {
			return true
		}
	}
	return false
}

// cpuSteal reads the machine's cumulative steal and total CPU ticks from
// /proc/stat (zeros where that file does not exist). Steal is time a
// hypervisor gave to other guests; it explains noisy runs.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
