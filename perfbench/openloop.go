package main

import "time"

// openLoop schedules operations at a fixed rate regardless of how long
// earlier ones took, so a slow operation delays the ones behind it and
// their latency counts the wait (no coordinated omission).
type openLoop struct {
	start  time.Time
	period time.Duration
}

// due is when operation i should be issued.
func (o openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.period) }

// tick is one scheduled operation's timeline.
type tick struct {
	due, issued, done time.Time
}

// late is how far behind schedule the operation was issued (0 when on
// time; the loop never issues early).
func (t tick) late() time.Duration {
	if t.issued.After(t.due) {
		return t.issued.Sub(t.due)
	}
	return 0
}

// latency is measured from when the operation was due, not from when it
// was issued.
func (t tick) latency() time.Duration { return t.done.Sub(t.due) }

// wait sleeps until operation i is due, or returns false when it would
// fall at or after the deadline.
func (o openLoop) wait(i int, deadline time.Time) (time.Time, bool) {
	d := o.due(i)
	if !d.Before(deadline) {
		return d, false
	}
	if s := time.Until(d); s > 0 {
		time.Sleep(s)
	}
	return d, true
}
