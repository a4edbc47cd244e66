package exec

import (
	"sync"

	"repro/internal/sqltypes"
)

// Gather is the exchange operator that merges partitioned parallel
// streams — "Gather Streams" in the paper's Figure 9/10 plans. Each child
// runs in its own producer goroutine. In unordered mode rows arrive as
// produced; in ordered mode children are drained in index order (a
// merging exchange for range-partitioned inputs), with all children still
// producing concurrently into bounded buffers.
//
// Rows cross the exchange in slabs of gatherSlab rows: a producer copies
// each row its child returns into the slab's arena (one []Value
// allocation per slab, KindBytes payloads deep-copied into one byte
// arena), and sends the slab in a single channel operation once it is
// full or the child ends. An error follows the rows produced before it.
// Rows returned by Gather are never reused or overwritten: each slab is
// fresh and the consumer owns it. A retained row keeps its whole slab's
// arenas alive, though, so a consumer that keeps some rows and drops the
// rest under a memory budget still clones the ones it keeps.
type Gather struct {
	Children []Operator
	Ordered  bool

	rows chan gatherMsg
	done chan struct{}
	wg   sync.WaitGroup

	// ordered mode
	buffers []chan gatherMsg
	current int

	// slab being served to the consumer
	slab []sqltypes.Row
	pos  int
	err  error
}

type gatherMsg struct {
	rows []sqltypes.Row
	err  error
}

// gatherSlab is the rows per channel operation. One send per slab
// amortizes the channel's lock and scheduler handoff, which per row
// dominated the cost of moving rows between goroutines.
const gatherSlab = 256

// gatherBuffer is the rows buffered per channel between producers and
// the consumer (gatherBuffer/gatherSlab slabs; the in-progress slab of
// each producer comes on top). Scan workers produce in bursts (a decoded
// page at a time), so the exchange needs enough slack to absorb a full
// page of rows per child without stalling the pipeline.
const gatherBuffer = 1024

// Open starts one producer goroutine per child.
func (g *Gather) Open(ctx *Context) error {
	g.done = make(chan struct{})
	g.slab, g.pos, g.err = nil, 0, nil
	const slabs = gatherBuffer / gatherSlab
	if g.Ordered {
		g.buffers = make([]chan gatherMsg, len(g.Children))
		for i := range g.buffers {
			g.buffers[i] = make(chan gatherMsg, slabs)
		}
		g.current = 0
	} else {
		g.rows = make(chan gatherMsg, slabs)
	}
	for i, child := range g.Children {
		out := g.rows
		if g.Ordered {
			out = g.buffers[i]
		}
		g.wg.Add(1)
		go g.produce(ctx, child, out)
	}
	if !g.Ordered {
		go func() {
			g.wg.Wait()
			close(g.rows)
		}()
	}
	return nil
}

// produce runs one child to completion, shipping its rows in slabs.
func (g *Gather) produce(ctx *Context, child Operator, out chan gatherMsg) {
	defer g.wg.Done()
	if g.Ordered {
		defer close(out)
	}
	if err := child.Open(ctx); err != nil {
		g.send(out, gatherMsg{err: err})
		return
	}
	defer child.Close()
	var s slabBuilder
	for {
		row, ok, err := child.Next()
		if err != nil {
			if len(s.rows) > 0 && !g.send(out, gatherMsg{rows: s.take()}) {
				return
			}
			g.send(out, gatherMsg{err: err})
			return
		}
		if !ok {
			if len(s.rows) > 0 {
				g.send(out, gatherMsg{rows: s.take()})
			}
			return
		}
		s.add(row)
		if len(s.rows) == gatherSlab && !g.send(out, gatherMsg{rows: s.take()}) {
			return // consumer gone
		}
	}
}

// send delivers unless the consumer has closed the gather.
func (g *Gather) send(out chan gatherMsg, msg gatherMsg) bool {
	select {
	case out <- msg:
		return true
	case <-g.done:
		return false
	}
}

// Next returns the next gathered row.
func (g *Gather) Next() (sqltypes.Row, bool, error) {
	for g.pos == len(g.slab) {
		if g.err != nil {
			return nil, false, g.err
		}
		msg, ok := g.receive()
		if !ok {
			return nil, false, nil
		}
		g.slab, g.pos, g.err = msg.rows, 0, msg.err
	}
	row := g.slab[g.pos]
	g.pos++
	return row, true, nil
}

// receive takes the next message: in ordered mode from the current
// child's buffer, moving on as each child's buffer closes.
func (g *Gather) receive() (gatherMsg, bool) {
	if !g.Ordered {
		msg, ok := <-g.rows
		return msg, ok
	}
	for g.current < len(g.buffers) {
		if msg, ok := <-g.buffers[g.current]; ok {
			return msg, true
		}
		g.current++
	}
	return gatherMsg{}, false
}

// Close stops producers and waits for them.
func (g *Gather) Close() error {
	select {
	case <-g.done:
	default:
		close(g.done)
	}
	// Drain so producers blocked on send can observe done.
	if g.Ordered {
		for _, ch := range g.buffers {
			for range ch {
			}
		}
	} else {
		for range g.rows {
		}
	}
	g.wg.Wait()
	g.slab = nil
	return nil
}

// slabBuilder copies rows into a slab's arenas: the Values of all its
// rows share one allocation, and so do their KindBytes payloads.
type slabBuilder struct {
	rows  []sqltypes.Row
	vals  []sqltypes.Value
	bytes []byte
}

// add appends a deep copy of row.
func (s *slabBuilder) add(row sqltypes.Row) {
	if s.rows == nil {
		s.rows = make([]sqltypes.Row, 0, gatherSlab)
	}
	if len(row) == 0 {
		s.rows = append(s.rows, sqltypes.Row{})
		return
	}
	if cap(s.vals)-len(s.vals) < len(row) {
		s.vals = make([]sqltypes.Value, 0, gatherSlab*len(row))
	}
	start := len(s.vals)
	s.vals = append(s.vals, row...)
	out := s.vals[start:len(s.vals):len(s.vals)]
	for i := range out {
		if out[i].K == sqltypes.KindBytes && out[i].B != nil {
			out[i].B = s.copyBytes(out[i].B)
		}
	}
	s.rows = append(s.rows, sqltypes.Row(out))
}

// copyBytes copies b into the byte arena, starting a new arena chunk
// when the current one is full. Copies are append-only and capacity-
// capped, so a chunk may span slabs without any copy being overwritten.
func (s *slabBuilder) copyBytes(b []byte) []byte {
	if cap(s.bytes)-len(s.bytes) < len(b) {
		s.bytes = make([]byte, 0, max(4096, len(b)))
	}
	start := len(s.bytes)
	s.bytes = append(s.bytes, b...)
	return s.bytes[start:len(s.bytes):len(s.bytes)]
}

// take hands the slab's rows over; the next row starts a fresh slab.
func (s *slabBuilder) take() []sqltypes.Row {
	rows := s.rows
	s.rows, s.vals = nil, nil
	return rows
}
