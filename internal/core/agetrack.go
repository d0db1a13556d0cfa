package core

// AgeTrack counts, per client, how many rounds have passed since the
// client's last aggregated model update, or, embedded in a DeltaTable, since
// its row was last Set. The transport server's update ages
// feed only its update-staleness telemetry and its round checkpoints (a
// resumed session reports the ages the uninterrupted one would have); a late
// fold's staleness discount does not read them, it ages from the parked
// update's own round (transport.BufferedUpdate.Round).
//
// The age convention matches DeltaTable: Reset zeroes an entry, Tick
// advances every entry once per completed round, so a client that
// contributed this round ends the round at age 1 and a client that never
// contributed reports the rounds since track creation.
type AgeTrack struct {
	ages  []int
	ticks int
}

// NewAgeTrack creates an all-zero track for n clients.
func NewAgeTrack(n int) *AgeTrack { return &AgeTrack{ages: make([]int, n)} }

// Len returns the number of tracked clients.
func (t *AgeTrack) Len() int { return len(t.ages) }

// Age returns client k's rounds-since-last-contribution count.
func (t *AgeTrack) Age(k int) int { return t.ages[k] }

// SetAge restores client k's age (checkpoint restore).
func (t *AgeTrack) SetAge(k, age int) { t.ages[k] = age }

// Reset marks client k as having contributed this round.
func (t *AgeTrack) Reset(k int) { t.ages[k] = 0 }

// Tick advances every client's age by one round. Call once per completed
// round, after the round's contributors were Reset.
func (t *AgeTrack) Tick() {
	for k := range t.ages {
		t.ages[k]++
	}
	t.ticks++
}

// Ticks returns how many rounds the track has aged since creation (or the
// restored counter) — the age every never-contributing client reports, and
// the default a sparse checkpoint assigns to unlisted entries.
func (t *AgeTrack) Ticks() int { return t.ticks }

// SetTicks restores the round counter (checkpoint restore).
func (t *AgeTrack) SetTicks(n int) { t.ticks = n }

// ForEach calls fn with every client's current age, in slot order.
func (t *AgeTrack) ForEach(fn func(k, age int)) {
	for k, a := range t.ages {
		fn(k, a)
	}
}
