package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// SpillFile is a temp row file used by joins whose build side exceeds the
// memory budget. Implemented by package storage (paged temp files read
// through the buffer pool); exec only sees this contract so the operator
// layer stays storage-agnostic. Append must be safe for concurrent use.
type SpillFile interface {
	Append(row sqltypes.Row) error
	Rows() int64
	Bytes() int64
	Iter() (RowIterator, error)
	Release() error
}

// SpillStore creates spill files; provided to the planner by the engine.
type SpillStore interface {
	Create() (SpillFile, error)
}

// JoinStats accumulates partitioned-join counters across queries. All
// fields are atomics: parallel probe workers update them concurrently and
// monitoring can snapshot mid-query.
type JoinStats struct {
	BuildRows         atomic.Int64 // rows routed on the build side
	ProbeRows         atomic.Int64 // rows routed on the probe side
	SpilledPartitions atomic.Int64 // partitions that exceeded the budget
	SpilledBuildRows  atomic.Int64 // build rows written to spill files
	SpilledProbeRows  atomic.Int64 // probe rows written to spill files
	SpillRecursions   atomic.Int64 // spilled partitions re-joined from disk
	BloomChecks       atomic.Int64 // probe rows tested against a build Bloom filter
	BloomDrops        atomic.Int64 // probe rows dropped by the Bloom filter
	// BloomDropsByPart resolves the drops per hash partition (the filter
	// runs below the exchange, so these show which partitions the early
	// drops spared — spilled partitions in particular). Joins widened past
	// DefaultJoinPartitions fold counts modulo the array size.
	BloomDropsByPart [DefaultJoinPartitions]atomic.Int64
}

// JoinStatsSnapshot is a point-in-time copy of JoinStats.
type JoinStatsSnapshot struct {
	BuildRows         int64
	ProbeRows         int64
	SpilledPartitions int64
	SpilledBuildRows  int64
	SpilledProbeRows  int64
	SpillRecursions   int64
	BloomChecks       int64
	BloomDrops        int64
	BloomDropsByPart  [DefaultJoinPartitions]int64
}

// Snapshot reads the counters; safe to call during queries.
func (s *JoinStats) Snapshot() JoinStatsSnapshot {
	out := JoinStatsSnapshot{
		BuildRows:         s.BuildRows.Load(),
		ProbeRows:         s.ProbeRows.Load(),
		SpilledPartitions: s.SpilledPartitions.Load(),
		SpilledBuildRows:  s.SpilledBuildRows.Load(),
		SpilledProbeRows:  s.SpilledProbeRows.Load(),
		SpillRecursions:   s.SpillRecursions.Load(),
		BloomChecks:       s.BloomChecks.Load(),
		BloomDrops:        s.BloomDrops.Load(),
	}
	for i := range s.BloomDropsByPart {
		out.BloomDropsByPart[i] = s.BloomDropsByPart[i].Load()
	}
	return out
}

// Sub returns the counter deltas since an earlier snapshot.
func (s JoinStatsSnapshot) Sub(earlier JoinStatsSnapshot) JoinStatsSnapshot {
	out := JoinStatsSnapshot{
		BuildRows:         s.BuildRows - earlier.BuildRows,
		ProbeRows:         s.ProbeRows - earlier.ProbeRows,
		SpilledPartitions: s.SpilledPartitions - earlier.SpilledPartitions,
		SpilledBuildRows:  s.SpilledBuildRows - earlier.SpilledBuildRows,
		SpilledProbeRows:  s.SpilledProbeRows - earlier.SpilledProbeRows,
		SpillRecursions:   s.SpillRecursions - earlier.SpillRecursions,
		BloomChecks:       s.BloomChecks - earlier.BloomChecks,
		BloomDrops:        s.BloomDrops - earlier.BloomDrops,
	}
	for i := range s.BloomDropsByPart {
		out.BloomDropsByPart[i] = s.BloomDropsByPart[i] - earlier.BloomDropsByPart[i]
	}
	return out
}

// DefaultJoinPartitions is the fan-out when the caller does not set one
// (the planner's default aliases this, so plans and operators agree).
const DefaultJoinPartitions = 32

// maxSpillDepth bounds recursion: a partition that still exceeds the
// budget after this many re-partitionings (e.g. one giant duplicate key,
// which no hash can subdivide) is built fully in memory.
const maxSpillDepth = 4

// PartitionedHashJoin is a Grace-style parallel partitioned hash join:
// both sides hash-partition on their equi-join keys, DOP workers build the
// partition hash tables concurrently (each worker owns disjoint
// partitions, so there is no shared-map locking), and every probe chain
// matches against its partition's table in its own probe operator. When
// the in-memory build rows exceed MemoryBudget, whole partitions spill
// both sides to temp files from Spill and are re-joined per partition
// after the in-memory probe finishes — converting the dominant genomics
// query shape (reads ⋈ alignments) from serial and memory-bound to
// parallel and out-of-core.
//
// Parts exposes the probe operators themselves, one per probe chain, so
// a planner can stack further per-partition work (another join's probe,
// a partial aggregate, a per-partition sort) on them below a single
// exchange. Run as one operator, the join is a Gather over its parts.
type PartitionedHashJoin struct {
	LeftKeys  []expr.Expr
	RightKeys []expr.Expr
	// Left and Right are the single-stream inputs. When the planner has
	// partitioned chains (parallel scans) it sets LeftParts/RightParts
	// instead and Left/Right may be nil.
	Left, Right           Operator
	LeftParts, RightParts []Operator
	// BuildLeft selects the left side as the build (hashed) side; the
	// planner picks the smaller estimated input. Output rows are always
	// the left row's values followed by the right row's.
	BuildLeft bool
	// Partitions is the hash fan-out P (default 32).
	Partitions int
	// MemoryBudget caps the bytes of build rows held in memory; 0 means
	// unlimited. Exceeding it spills partitions through Spill.
	MemoryBudget int64
	// Spill creates temp files for spilled partitions. Required only when
	// MemoryBudget can be exceeded.
	Spill SpillStore
	// Level is the recursion depth (seeds the partition hash so re-spilled
	// rows redistribute); zero for planner-built joins.
	Level int
	// Bloom builds a blocked Bloom filter over the build-side keys during
	// partitioning and drops probe rows with no possible match before they
	// are routed — and in particular before they are spilled. The planner
	// disables it when statistics say nearly every probe row matches.
	Bloom bool
	// BuildRowsEstimate sizes the Bloom filter (the planner's post-filter
	// build-side cardinality estimate; 0 uses a default size).
	BuildRowsEstimate int64
	// PrePartition marks the first N partitions as spilled before the
	// build side is drained: when statistics already say the build side
	// exceeds MemoryBudget, routing those rows straight to disk avoids
	// buffering them and evicting mid-build. Requires Spill.
	PrePartition int

	// op runs the join: a Gather over the parts, or the single part when
	// the probe side is one stream.
	op Operator
}

// buildInputs returns the build-side chains and key expressions.
func (j *PartitionedHashJoin) buildInputs() ([]Operator, []expr.Expr) {
	if j.BuildLeft {
		if len(j.LeftParts) > 0 {
			return j.LeftParts, j.LeftKeys
		}
		return []Operator{j.Left}, j.LeftKeys
	}
	if len(j.RightParts) > 0 {
		return j.RightParts, j.RightKeys
	}
	return []Operator{j.Right}, j.RightKeys
}

// probeInputs returns the probe-side chains and key expressions.
func (j *PartitionedHashJoin) probeInputs() ([]Operator, []expr.Expr) {
	if j.BuildLeft {
		if len(j.RightParts) > 0 {
			return j.RightParts, j.RightKeys
		}
		return []Operator{j.Right}, j.RightKeys
	}
	if len(j.LeftParts) > 0 {
		return j.LeftParts, j.LeftKeys
	}
	return []Operator{j.Left}, j.LeftKeys
}

// appendJoinKey evaluates the join-key expressions over row (into the
// reusable keyVals scratch) and appends the comparable key encoding to
// dst[:0]. null reports a NULL key, which never joins. Build routing,
// probe routing and the serial hash join all share this, so the two sides
// of a join can never disagree on key encoding or NULL semantics.
func appendJoinKey(dst []byte, keys []expr.Expr, keyVals sqltypes.Row, row sqltypes.Row) (enc []byte, null bool, err error) {
	for i, e := range keys {
		v, err := e.Eval(row)
		if err != nil {
			return dst, false, err
		}
		if v.IsNull() {
			return dst, true, nil
		}
		keyVals[i] = v
	}
	enc, err = appendGroupKey(dst[:0], keyVals)
	return enc, false, err
}

// bloomKeyHash hashes a key encoding for the Bloom filter. It must be
// independent of partitionHash (the filter's bit choices must not
// correlate with partition routing), so it salts the FNV offset basis
// with a constant outside the recursion-level range.
func bloomKeyHash(key []byte) uint64 {
	h := uint64(14695981039346656037) ^ 0xB10F_B10F_B10F_B10F
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// partitionHash distributes a key encoding onto partitions; level seeds
// the hash so recursive re-partitioning shuffles the rows that collided at
// the previous level (FNV-1a with a level-salted offset basis).
func partitionHash(key []byte, level int) uint64 {
	h := uint64(14695981039346656037) ^ (uint64(level)+1)*0x9E3779B97F4A7C15
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// rowMemBytes approximates the retained size of a buffered row.
func rowMemBytes(row sqltypes.Row) int64 {
	n := int64(len(row)) * 48 // Value header
	for _, v := range row {
		n += int64(len(v.S)) + int64(len(v.B))
	}
	return n + 24 // slice header
}

// Open starts the join's parts: under a Gather exchange when the probe
// side has several chains, directly otherwise.
func (j *PartitionedHashJoin) Open(ctx *Context) error {
	parts := j.Parts()
	op := parts[0]
	if len(parts) > 1 {
		op = &Gather{Children: parts}
	}
	if err := op.Open(ctx); err != nil {
		return err
	}
	j.op = op
	return nil
}

// Next returns the next joined row.
func (j *PartitionedHashJoin) Next() (sqltypes.Row, bool, error) {
	return j.op.Next()
}

// Close stops the parts, which release the spill files and tables.
func (j *PartitionedHashJoin) Close() error {
	if j.op == nil {
		return nil
	}
	err := j.op.Close()
	j.op = nil
	return err
}

// Parts returns one probe operator per probe chain, all sharing one
// build of the partition tables. The first part to Open runs the build
// and the others wait for it; a build error fails every part's Open. No
// part waits for another after that: the part whose probe stream ends
// last joins the spilled partitions (every probe row has been routed by
// then), and the last part to Close frees the shared state. Each part is
// opened at most once; a part whose Open fails needs no Close.
func (j *PartitionedHashJoin) Parts() []Operator {
	chains, keys := j.probeInputs()
	b := &phjBuild{j: j}
	b.streaming.Store(int32(len(chains)))
	b.live.Store(int32(len(chains)))
	parts := make([]Operator, len(chains))
	for i, ch := range chains {
		parts[i] = &phjProbe{b: b, child: ch, keys: keys}
	}
	return parts
}

// phjBuild is the state the probe parts of one join share: the in-memory
// partition tables, the Bloom filter and the spilled partitions' files.
// Everything but the probe spill files (SpillFile.Append is
// concurrency-safe) is read-only once the build has run.
type phjBuild struct {
	j    *PartitionedHashJoin
	once sync.Once
	err  error

	bloom      *BlockedBloom
	tables     []map[string][]sqltypes.Row
	spilled    []bool
	buildSpill []SpillFile
	probeSpill []SpillFile

	streaming atomic.Int32 // parts whose probe stream has not ended
	live      atomic.Int32 // parts not yet closed (or failed to open)
}

// open runs the build once; every caller gets its error.
func (b *phjBuild) open(ctx *Context) error {
	b.once.Do(func() {
		if b.err = b.build(ctx); b.err != nil {
			b.releaseSpills()
		}
	})
	return b.err
}

// release drops one part's hold on the shared state; the last one frees
// the spill files and tables.
func (b *phjBuild) release() {
	if b.live.Add(-1) == 0 {
		b.releaseSpills()
		b.tables, b.bloom = nil, nil
	}
}

// build partitions the build side (spilling over-budget partitions),
// builds the in-memory partition tables with DOP workers, and creates
// the probe spill files of the spilled partitions.
func (b *phjBuild) build(ctx *Context) error {
	j := b.j
	stats := &statsFrom(ctx).Join
	prof := profFrom(ctx)
	p := j.Partitions
	if p < 1 {
		p = DefaultJoinPartitions
	}
	b.tables = make([]map[string][]sqltypes.Row, p)
	b.spilled = make([]bool, p)
	b.buildSpill = make([]SpillFile, p)
	b.probeSpill = make([]SpillFile, p)
	if j.Bloom {
		est := j.BuildRowsEstimate
		if est <= 0 {
			est = 1 << 16
		}
		b.bloom = NewBlockedBloom(est)
	}
	if j.PrePartition > 0 && j.Spill != nil {
		for i := 0; i < min(j.PrePartition, p); i++ {
			f, err := j.Spill.Create()
			if err != nil {
				return err
			}
			b.buildSpill[i] = f
			b.spilled[i] = true
			stats.SpilledPartitions.Add(1)
			prof.AddSpill(0, 1, 0)
		}
	}

	partRows, partKeys, err := b.partitionBuildSide(ctx, p)
	if err != nil {
		return err
	}
	b.buildTables(ctx, partRows, partKeys)
	// Spilled build partitions need their probe rows captured too.
	for i, sp := range b.spilled {
		if !sp {
			continue
		}
		f, err := j.Spill.Create()
		if err != nil {
			return err
		}
		b.probeSpill[i] = f
	}
	return nil
}

// partitionBuildSide drains the build input (through an unordered Gather
// when the planner supplied parallel chains, so the scan itself overlaps
// I/O) and routes each row to its partition, spilling the largest
// partitions whenever the buffered bytes exceed the budget. Buffered rows
// are cloned even off a Gather: a gathered row shares its slab's arena
// with rows of every other partition, so keeping it would keep evicted
// and spilled rows resident. Row counters tally locally and flush every
// gatherSlab rows and on return.
func (b *phjBuild) partitionBuildSide(ctx *Context, p int) ([][]sqltypes.Row, [][]string, error) {
	j := b.j
	stats := &statsFrom(ctx).Join
	prof := profFrom(ctx)
	chains, keys := j.buildInputs()
	var next func() (sqltypes.Row, bool, error)
	var closeInput func() error
	if len(chains) == 1 {
		ch := chains[0]
		if err := ch.Open(ctx); err != nil {
			return nil, nil, err
		}
		next, closeInput = ch.Next, ch.Close
	} else {
		g := &Gather{Children: chains}
		if err := g.Open(ctx); err != nil {
			return nil, nil, err
		}
		next, closeInput = g.Next, g.Close
	}

	var buildRows, spilledRows int64
	flush := func() {
		if buildRows != 0 {
			stats.BuildRows.Add(buildRows)
		}
		if spilledRows != 0 {
			stats.SpilledBuildRows.Add(spilledRows)
			prof.AddSpill(0, 0, spilledRows)
		}
		buildRows, spilledRows = 0, 0
	}
	defer flush()

	partRows := make([][]sqltypes.Row, p)
	partKeys := make([][]string, p)
	partBytes := make([]int64, p)
	var memBytes int64
	keyVals := make(sqltypes.Row, len(keys))
	var keyBuf []byte
	fail := func(err error) ([][]sqltypes.Row, [][]string, error) {
		closeInput()
		return nil, nil, err
	}
	for {
		row, ok, err := next()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		var null bool
		keyBuf, null, err = appendJoinKey(keyBuf, keys, keyVals, row)
		if err != nil {
			return fail(err)
		}
		if null {
			continue
		}
		if buildRows++; buildRows == gatherSlab {
			flush()
		}
		if b.bloom != nil {
			b.bloom.Add(bloomKeyHash(keyBuf))
		}
		pt := int(partitionHash(keyBuf, j.Level) % uint64(p))
		if b.spilled[pt] {
			if err := b.buildSpill[pt].Append(row); err != nil {
				return fail(err)
			}
			spilledRows++
			continue
		}
		row = row.Clone()
		partRows[pt] = append(partRows[pt], row)
		partKeys[pt] = append(partKeys[pt], string(keyBuf))
		sz := rowMemBytes(row) + int64(len(keyBuf))
		partBytes[pt] += sz
		memBytes += sz
		for j.MemoryBudget > 0 && memBytes > j.MemoryBudget {
			victim := -1
			for i := range partBytes {
				if !b.spilled[i] && len(partRows[i]) > 0 &&
					(victim < 0 || partBytes[i] > partBytes[victim]) {
					victim = i
				}
			}
			if victim < 0 {
				break // nothing left to evict
			}
			if j.Spill == nil {
				return fail(fmt.Errorf("exec: join memory budget %d exceeded and no spill store configured", j.MemoryBudget))
			}
			f, err := j.Spill.Create()
			if err != nil {
				return fail(err)
			}
			for _, r := range partRows[victim] {
				if err := f.Append(r); err != nil {
					f.Release()
					return fail(err)
				}
			}
			stats.SpilledPartitions.Add(1)
			stats.SpilledBuildRows.Add(int64(len(partRows[victim])))
			prof.AddSpill(0, 1, int64(len(partRows[victim])))
			b.buildSpill[victim] = f
			b.spilled[victim] = true
			memBytes -= partBytes[victim]
			partBytes[victim] = 0
			partRows[victim] = nil
			partKeys[victim] = nil
		}
	}
	if err := closeInput(); err != nil {
		return nil, nil, err
	}
	return partRows, partKeys, nil
}

// buildTables constructs the in-memory partition hash tables with up to
// DOP workers; worker w owns partitions w, w+DOP, ... so no table is
// shared between goroutines.
func (b *phjBuild) buildTables(ctx *Context, partRows [][]sqltypes.Row, partKeys [][]string) {
	p := len(partRows)
	workers := min(max(ctx.DOP, 1), p)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < p; i += workers {
				if b.spilled[i] || len(partRows[i]) == 0 {
					continue
				}
				m := make(map[string][]sqltypes.Row, len(partRows[i]))
				for r, row := range partRows[i] {
					k := partKeys[i][r]
					m[k] = append(m[k], row)
				}
				b.tables[i] = m
			}
		}(w)
	}
	wg.Wait()
}

// releaseSpills frees every live spill file.
func (b *phjBuild) releaseSpills() {
	for i := range b.buildSpill {
		if b.buildSpill[i] != nil {
			b.buildSpill[i].Release()
			b.buildSpill[i] = nil
		}
		if b.probeSpill[i] != nil {
			b.probeSpill[i].Release()
			b.probeSpill[i] = nil
		}
	}
}

// phjProbe is one part of a partitioned hash join: it streams its probe
// chain, matches rows whose partition is in memory (the tables are
// read-only by now, so lookups are lock-free) and routes rows of spilled
// partitions to the partition's probe file. If its stream ends last, it
// then joins the spilled partitions one at a time.
type phjProbe struct {
	b     *phjBuild
	child Operator
	keys  []expr.Expr

	ctx    *Context
	stats  *JoinStats
	prof   *obs.OpProfile
	opened bool
	ended  bool // the probe stream ended and was counted down
	spills bool // this part joins the spilled partitions
	tally  probeTally

	pending []sqltypes.Row
	current sqltypes.Row
	keyVals sqltypes.Row
	keyBuf  []byte
	out     sqltypes.Row

	subIdx   int
	sub      *PartitionedHashJoin
	subBuild SpillFile
	subProbe SpillFile
}

// probeTally holds a probe worker's counters between flushes, so the
// per-row work touches no shared cache line.
type probeTally struct {
	rows, checks, drops, spilled int64
	dropsByPart                  [DefaultJoinPartitions]int64
}

// Open runs (or waits for) the shared build, then opens the probe chain.
func (w *phjProbe) Open(ctx *Context) error {
	if err := w.b.open(ctx); err != nil {
		w.b.release()
		return err
	}
	if err := w.child.Open(ctx); err != nil {
		w.b.release()
		return err
	}
	w.ctx = ctx
	w.stats = &statsFrom(ctx).Join
	w.prof = profFrom(ctx)
	w.keyVals = make(sqltypes.Row, len(w.keys))
	w.opened = true
	return nil
}

// Next produces the part's next joined row.
func (w *phjProbe) Next() (sqltypes.Row, bool, error) {
	b := w.b
	p := len(b.spilled)
	for {
		if len(w.pending) > 0 {
			build := w.pending[0]
			w.pending = w.pending[1:]
			return w.combine(w.current, build), true, nil
		}
		if w.ended {
			return w.nextSpilled()
		}
		row, ok, err := w.child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			w.ended = true
			w.flush()
			if b.streaming.Add(-1) == 0 {
				// Every part has routed its last probe row: the spilled
				// partitions' probe files are complete. The in-memory
				// tables are dead weight from here on: each recursion
				// builds its own budget-sized tables, and freeing these
				// keeps resident build memory near one budget.
				w.spills = true
				b.tables = nil
			}
			continue
		}
		var null bool
		w.keyBuf, null, err = appendJoinKey(w.keyBuf, w.keys, w.keyVals, row)
		if err != nil {
			return nil, false, err
		}
		if null {
			continue
		}
		if w.tally.rows++; w.tally.rows == gatherSlab {
			w.flush()
		}
		// The Bloom check runs before any routing: a dropped row is never
		// partitioned and — the expensive case — never spilled. Dropped
		// rows still attribute to the partition they would have routed to,
		// so monitoring can see which partitions the filter spared.
		pt := int(partitionHash(w.keyBuf, b.j.Level) % uint64(p))
		if b.bloom != nil {
			w.tally.checks++
			if !b.bloom.MayContain(bloomKeyHash(w.keyBuf)) {
				w.tally.drops++
				w.tally.dropsByPart[pt%DefaultJoinPartitions]++
				continue
			}
		}
		if b.spilled[pt] {
			if err := b.probeSpill[pt].Append(row); err != nil {
				return nil, false, err
			}
			w.tally.spilled++
			continue
		}
		matches := b.tables[pt][string(w.keyBuf)]
		if len(matches) == 0 {
			continue
		}
		// The child keeps row valid until its next Next, which waits for
		// the matches to drain; combine copies it out.
		w.current = row
		w.pending = matches
	}
}

// flush adds the tallied counters to the shared stats and profile.
func (w *phjProbe) flush() {
	t := &w.tally
	if t.rows != 0 {
		w.stats.ProbeRows.Add(t.rows)
	}
	if t.checks != 0 {
		w.stats.BloomChecks.Add(t.checks)
		w.prof.AddBloom(t.checks, t.drops)
	}
	if t.drops != 0 {
		w.stats.BloomDrops.Add(t.drops)
		for i, n := range t.dropsByPart {
			if n != 0 {
				w.stats.BloomDropsByPart[i].Add(n)
			}
		}
	}
	if t.spilled != 0 {
		w.stats.SpilledProbeRows.Add(t.spilled)
		w.prof.AddSpill(0, 0, t.spilled)
	}
	*t = probeTally{}
}

// nextSpilled streams the recursive joins of the spilled partitions, one
// partition at a time, on the part that owns them.
func (w *phjProbe) nextSpilled() (sqltypes.Row, bool, error) {
	if !w.spills {
		return nil, false, nil
	}
	for {
		if w.sub != nil {
			row, ok, err := w.sub.Next()
			if err != nil || ok {
				return row, ok, err
			}
			if err := w.finishSub(); err != nil {
				return nil, false, err
			}
		}
		started, err := w.startNextSpilled()
		if err != nil || !started {
			return nil, false, err
		}
	}
}

// startNextSpilled opens the recursive join over the next non-empty
// spilled partition; returns false when none remain.
func (w *phjProbe) startNextSpilled() (bool, error) {
	b, j := w.b, w.b.j
	for w.subIdx < len(b.spilled) {
		i := w.subIdx
		w.subIdx++
		if !b.spilled[i] {
			continue
		}
		bf, pf := b.buildSpill[i], b.probeSpill[i]
		b.buildSpill[i], b.probeSpill[i] = nil, nil
		// Spill volume is accounted when the partition's files retire:
		// every spilled partition passes through here exactly once (error
		// paths release without retiring, and never produce a profile).
		w.prof.AddSpill(bf.Bytes()+pf.Bytes(), 0, 0)
		if bf.Rows() == 0 || pf.Rows() == 0 {
			bf.Release()
			pf.Release()
			continue
		}
		w.stats.SpillRecursions.Add(1)
		buildSrc := spillSource(bf)
		probeSrc := spillSource(pf)
		sub := &PartitionedHashJoin{
			LeftKeys:   j.LeftKeys,
			RightKeys:  j.RightKeys,
			BuildLeft:  j.BuildLeft,
			Partitions: j.Partitions,
			Spill:      j.Spill,
			Level:      j.Level + 1,
		}
		// Past maxSpillDepth the partition cannot be subdivided further
		// (all rows share a key); build it in memory regardless of budget.
		if j.Level+1 < maxSpillDepth {
			sub.MemoryBudget = j.MemoryBudget
		}
		if j.BuildLeft {
			sub.Left, sub.Right = buildSrc, probeSrc
		} else {
			sub.Left, sub.Right = probeSrc, buildSrc
		}
		if err := sub.Open(w.ctx); err != nil {
			bf.Release()
			pf.Release()
			return false, err
		}
		w.sub, w.subBuild, w.subProbe = sub, bf, pf
		return true, nil
	}
	return false, nil
}

// finishSub closes the current recursive join and frees its spill files.
func (w *phjProbe) finishSub() error {
	err := w.sub.Close()
	if rerr := w.subBuild.Release(); err == nil {
		err = rerr
	}
	if rerr := w.subProbe.Release(); err == nil {
		err = rerr
	}
	w.sub, w.subBuild, w.subProbe = nil, nil, nil
	return err
}

// combine renders probe+build in left-then-right output order.
func (w *phjProbe) combine(probe, build sqltypes.Row) sqltypes.Row {
	left, right := probe, build
	if w.b.j.BuildLeft {
		left, right = build, probe
	}
	if cap(w.out) < len(left)+len(right) {
		w.out = make(sqltypes.Row, len(left)+len(right))
	}
	w.out = w.out[:len(left)+len(right)]
	copy(w.out, left)
	copy(w.out[len(left):], right)
	return w.out
}

// Close flushes the counters, closes the probe chain and any recursive
// join, and drops the part's hold on the shared state.
func (w *phjProbe) Close() error {
	if !w.opened {
		return nil
	}
	w.opened = false
	w.flush()
	err := w.child.Close()
	if w.sub != nil {
		if serr := w.finishSub(); err == nil {
			err = serr
		}
	}
	w.pending, w.current = nil, nil
	w.b.release()
	return err
}

// spillSource adapts a spill file into a re-openable scan operator.
func spillSource(f SpillFile) *Source {
	return &Source{
		Label: "Spill Scan",
		Factory: func(*Context) (RowIterator, error) {
			return f.Iter()
		},
	}
}
