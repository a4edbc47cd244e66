package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileFewSamples(t *testing.T) {
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported ok")
	}
	for _, p := range []float64{0, 0.5, 0.9, 1} {
		if v, ok := percentile([]float64{7}, p); !ok || v != 7 {
			t.Fatalf("one sample, p=%v: got %v, %v", p, v, ok)
		}
	}
	two := []float64{30, 10} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 20}, {0.9, 28}, {1, 30}} {
		if v, _ := percentile(two, c.p); math.Abs(v-c.want) > 1e-9 {
			t.Fatalf("two samples, p=%v: got %v, want %v", c.p, v, c.want)
		}
	}
	if two[0] != 30 {
		t.Fatal("percentile reordered its input")
	}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if v, _ := percentile(ten, 0.9); math.Abs(v-9.1) > 1e-9 {
		t.Fatalf("p90 of 1..10 = %v, want 9.1", v)
	}
	if v := median([]float64{4, 1, 3}); v != 3 {
		t.Fatalf("median = %v, want 3", v)
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 0}, {1, 0}, {10, 1}, {100, 10}, {101, 10}} {
		if got := beyond(c.n, 0.9); got != c.want {
			t.Errorf("beyond(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 100 * ms, Layer: "bench"},
		// Two children overlapping each other on [20, 30).
		{ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms, Layer: "exec"},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms, Layer: "exec"},
		// A child sticking out past its parent is clipped to it.
		{ID: 4, Parent: 1, Start: 90 * ms, End: 120 * ms, Layer: "core"},
		// A grandchild inside span 3 only reduces span 3's self time.
		{ID: 5, Parent: 3, Start: 25 * ms, End: 35 * ms, Layer: "runtime"},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	rows := layerTable(spans, []string{"exec", "core", "storage"})
	byLayer := map[string]layerTime{}
	for _, r := range rows {
		byLayer[r.Layer] = r
	}
	if r := byLayer["exec"]; r.Spans != 2 || r.Self != 40*ms || r.Total != 50*ms {
		t.Errorf("exec row %+v", r)
	}
	if r := byLayer["storage"]; r.Spans != 0 || r.Self != 0 {
		t.Errorf("storage row %+v, want an empty row", r)
	}
	if _, ok := byLayer["bench"]; !ok {
		t.Error("unlisted layer dropped from the table")
	}
	var buf bytes.Buffer
	writeLayerTable(&buf, rows)
	if !bytes.Contains(buf.Bytes(), []byte("exec")) {
		t.Errorf("table misses exec:\n%s", buf.String())
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	sp := r.begin("x", "exec", 0, 1)
	sp.end()
	if sp.id() != 0 || r.snapshot() != nil {
		t.Fatal("nil recorder recorded a span")
	}
	r = newRecorder()
	root := r.begin("round", "bench", 0, 7)
	child := r.begin("exec.q", "exec", root.id(), 7)
	child.end()
	root.end()
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Group != 7 || s[1].End < s[1].Start {
		t.Fatalf("spans %+v", s)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	o := openLoop{start: t0, period: 100 * time.Millisecond}
	// Batch 0 runs 250 ms, so batches 1 and 2 are issued late, back to
	// back; batch 3 is on time again.
	ticks := []tick{
		{due: o.due(0), issued: t0, done: t0.Add(250 * time.Millisecond)},
		{due: o.due(1), issued: t0.Add(250 * time.Millisecond), done: t0.Add(260 * time.Millisecond)},
		{due: o.due(2), issued: t0.Add(260 * time.Millisecond), done: t0.Add(270 * time.Millisecond)},
		{due: o.due(3), issued: t0.Add(300 * time.Millisecond), done: t0.Add(310 * time.Millisecond)},
	}
	wantLate := []time.Duration{0, 150, 60, 0}
	wantLat := []time.Duration{250, 160, 70, 10}
	for i, tk := range ticks {
		if got := tk.late(); got != wantLate[i]*time.Millisecond {
			t.Errorf("batch %d late %v, want %vms", i, got, wantLate[i])
		}
		// Latency counts from due, so the queueing behind batch 0 shows.
		if got := tk.latency(); got != wantLat[i]*time.Millisecond {
			t.Errorf("batch %d latency %v, want %vms", i, got, wantLat[i])
		}
	}
	// Issued early (clock skew) is not negative lateness.
	if (tick{due: t0, issued: t0.Add(-time.Millisecond)}).late() != 0 {
		t.Error("early issue reported as negative lateness")
	}
	if _, ok := o.wait(5, t0.Add(500*time.Millisecond)); ok {
		t.Error("wait admitted an operation due at the deadline")
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"setup_s", "exec.join.build_rows", "p90", "9x", "a-b.c_d"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/es", "pct%", "ünïcode", "semi;colon", long} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := checkCatalog(); err != nil {
		t.Fatal(err)
	}
	saved := layerMetrics
	defer func() { layerMetrics = saved }()
	layerMetrics = append(append([]layerMetric(nil), saved...), layerMetric{Name: "bad name", Unit: "ms"})
	if checkCatalog() == nil {
		t.Fatal("catalogue accepted a bad metric name")
	}
	layerMetrics = append(append([]layerMetric(nil), saved...), saved[0])
	if checkCatalog() == nil {
		t.Fatal("catalogue accepted a duplicate metric")
	}
}

// The committed BENCHMARK.json and catalog.json are renderings of the
// catalogue; regenerate them with --describe and --catalog.
func TestCommittedFilesMatchCatalogue(t *testing.T) {
	for _, c := range []struct {
		path   string
		render func() ([]byte, error)
	}{{"../BENCHMARK.json", describe}, {"catalog.json", catalog}} {
		want, err := c.render()
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: regenerate it from the catalogue", c.path)
		}
	}
}

func TestField(t *testing.T) {
	ln := "|--Table Scan [A] WHERE:(...) full scan (est=53 rows, actual=13 rows, off by 4.1x over)"
	if v, ok := field(ln, "est="); !ok || v != 53 {
		t.Fatalf("est = %v, %v", v, ok)
	}
	if v, ok := field(ln, "actual="); !ok || v != 13 {
		t.Fatalf("actual = %v, %v", v, ok)
	}
	if _, ok := field(ln, "missing="); ok {
		t.Fatal("found a missing key")
	}
}
