package transport

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// lateMsg is one straggler receiver's delivery: the update a cohort member
// eventually produced for the round it was assigned in, or the error that
// ended its connection. Every async gather goroutine sends exactly one.
type lateMsg struct {
	client int
	round  int // round the client was assigned in
	m      *Message
	err    error
	span   telemetry.ActiveSpan // the gather_client span, ended at delivery
}

// BufferedUpdate is a validated, decoded update that arrived after its round
// closed, parked until the next aggregation folds it in with the staleness
// discount engine.StalenessWeight(round-Round, λ). Params belong to the entry:
// the late frame's own slice, or the buffer its packed payload was rebuilt into.
type BufferedUpdate struct {
	Client int
	Round  int
	Loss   float64
	Params []float64
}

// busyCount reports how many slots have an in-flight update receiver.
func (s *session) busyCount() int {
	n := 0
	for _, b := range s.busy {
		if b {
			n++
		}
	}
	return n
}

// asyncEligible is the population a new cohort may be sampled from: active,
// no receiver in flight, and no parked update waiting to fold (a buffered
// client folds this round; re-assigning it would double-count it).
func (s *session) asyncEligible() []bool {
	elig := make([]bool, len(s.conns))
	for i, a := range s.active {
		elig[i] = a && !s.busy[i] && s.buffered[i] == nil
	}
	return elig
}

// drainLate consumes every already-delivered straggler message without
// blocking. Call at each round boundary so arrivals between rounds are
// parked (or their connection errors surfaced) before cohort sampling.
func (s *session) drainLate(round int) {
	for {
		select {
		case lm := <-s.lateCh:
			s.handleLate(lm, round, nil)
		default:
			return
		}
	}
}

// awaitAvail blocks while the assignable population plus the parked folds
// cannot reach quorum but stragglers are still in flight — the next arrival
// may unblock either set. Bounded by the current deadline; on timeout the
// attempt proceeds (and fails quorum) so the retry loop stays in charge.
func (s *session) awaitAvail(round int) {
	var timeout <-chan time.Time
	if d := s.curDeadline(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	for {
		avail := 0
		for i, a := range s.active {
			if a && !s.busy[i] {
				avail++ // assignable or already parked (folds this round)
			}
		}
		if avail >= s.minClients || s.busyCount() == 0 {
			return
		}
		select {
		case lm := <-s.lateCh:
			s.handleLate(lm, round, nil)
		case <-timeout:
			return
		}
	}
}

// handleLate settles one straggler delivery. With updates non-nil and the
// message fresh for the current round it is placed there (the caller is the
// round's own gather); anything else is parked for a later fold, dropped as
// overripe, or — on error — evicts the client. Reports whether the message
// was placed fresh.
func (s *session) handleLate(lm lateMsg, round int, updates []*Message) bool {
	lm.span.End()
	s.busy[lm.client] = false
	if lm.err != nil {
		s.evict(lm.client, round, fmt.Sprintf("gather: %v", lm.err))
		return false
	}
	if updates != nil && lm.round == round {
		updates[lm.client] = lm.m
		return true
	}
	s.park(lm, round)
	return false
}

// park validates and decodes a late update immediately — against the
// broadcast reference of the round it was assigned in, which is intact
// because busy slots are skipped by later broadcasts — and buffers an owned
// copy for the next aggregation. Overripe updates (past MaxStaleness) are
// dropped: their information content is the same argument MaxStale makes
// for δ rows. Invalid ones evict the sender, exactly like the fresh path.
func (s *session) park(lm lateMsg, round int) {
	i, m := lm.client, lm.m
	var own []float64 // a packed update is rebuilt straight into its parking buffer
	params, err := s.decodeUpdate(i, m, &own)
	if err != nil {
		s.evict(i, round, err.Error())
		return
	}
	if err := engine.Validate(engine.Update{Loss: m.Loss, Params: params}, len(s.global)); err != nil {
		s.evict(i, round, err.Error())
		return
	}
	if age := round - lm.round; s.cfg.MaxStaleness > 0 && age > s.cfg.MaxStaleness {
		s.logf("dropped client %d's update for round %d (age %d > max staleness %d)",
			i, lm.round, age, s.cfg.MaxStaleness)
		return
	}
	s.buffered[i] = &BufferedUpdate{
		Client: i,
		Round:  lm.round,
		Loss:   m.Loss,
		Params: params,
	}
	s.metrics.buffered.Set(float64(s.bufferedCount()))
	s.logf("buffered client %d's update for round %d (arrived in round %d)", i, lm.round, round)
}

// decodeUpdate reconstructs an update's dense params. A packed update is
// difference-coded: one pass rebuilds reference + decode(payload) into *dst,
// the caller's buffer for it. The reference is what the client decoded its
// last model payload to — the exact global under a dense broadcast, the shared
// decode under a deterministic lossy one, the slot's own payload under a
// stochastic one; an async session reads the slot's copy of the first two,
// which the live ones may have advanced past before a straggler's update
// lands. Shared by the fresh validation loop and the late park path.
func (s *session) decodeUpdate(i int, m *Message, dst *[]float64) ([]float64, error) {
	if m.PParams.N == 0 {
		return m.Params, nil
	}
	if int(m.PParams.N) != len(s.global) {
		return nil, fmt.Errorf("sent packed update of %d params, want %d", m.PParams.N, len(s.global))
	}
	sl := s.codec.slot(i)
	out, ref := resizeFloats(dst, len(s.global)), s.global
	switch {
	case sl.bcast.Stochastic():
		if err := compress.DecodeInto(out, sl.bcast, sl.bcastBuf); err != nil {
			return nil, fmt.Errorf("packed update with no broadcast to rebuild it on: %v", err)
		}
		ref = out
	case s.cfg.BufferK > 0 && len(sl.ref) == len(s.global):
		ref = sl.ref
	case sl.bcast != compress.SchemeDense:
		ref = s.codec.bcastRef
	}
	if err := compress.DecodeAddInto(out, ref, m.PParams.Scheme, m.PParams.Data); err != nil {
		return nil, fmt.Errorf("packed update: %v", err)
	}
	return out, nil
}

// bufferedCount reports how many updates are parked.
func (s *session) bufferedCount() int {
	n := 0
	for _, b := range s.buffered {
		if b != nil {
			n++
		}
	}
	return n
}

// folds returns the parked updates to fold into round's aggregation, aged
// against it, in slot order (deterministic given identical buffered state —
// the resume contract). The entries stay parked until the aggregation has
// succeeded; a failed attempt must not consume them.
func (s *session) folds(round int) []engine.Update {
	var f []engine.Update
	for i, b := range s.buffered {
		if b != nil {
			f = append(f, engine.Update{Client: i, Samples: s.samples[i], Age: round - b.Round, Loss: b.Loss, Params: b.Params})
		}
	}
	return f
}

// gatherAsyncUpdates is the buffered-round counterpart of gatherActive for
// the model-update gather: it spawns one receiver per cohort member, then
// returns once the fresh-arrival target is met or the deadline fires.
// Receivers that have not delivered stay in flight — their slot is busy,
// excluded from later cohorts and broadcasts, until handleLate settles the
// delivery in whichever round it lands.
//
// The fresh target is BufferK, raised so that fresh + parked folds can
// still reach quorum, and capped at the cohort size; a BufferK of at least
// the cohort waits for all of it (async plumbing, synchronous semantics).
func (s *session) gatherAsyncUpdates(round int, cohort []bool, parent telemetry.SpanContext) []*Message {
	n := 0
	for i := range s.conns {
		if !cohort[i] || !s.active[i] {
			continue
		}
		n++
		s.busy[i] = true
		sp := s.cfg.Tracer.Start("gather_client", parent)
		sp.Round, sp.Client = round, i
		go func(i int, c Conn, sp telemetry.ActiveSpan) {
			m, err := gatherOne(context.Background(), c, MsgUpdate, round)
			s.lateCh <- lateMsg{client: i, round: round, m: m, err: err, span: sp}
		}(i, s.conns[i], sp)
	}
	k := min(s.cfg.BufferK, n)
	if need := s.minClients - s.bufferedCount(); k < need {
		k = need
		if k > n {
			k = n
		}
	}
	updates := make([]*Message, len(s.conns))
	start := time.Now()
	var timeout <-chan time.Time
	if d := s.curDeadline(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	for got := 0; got < k; {
		select {
		case lm := <-s.lateCh:
			if s.handleLate(lm, round, updates) {
				if s.ctrl != nil {
					s.ctrl.observe(lm.client, time.Since(start))
				}
				got++
			}
		case <-timeout:
			return updates
		}
	}
	return updates
}

// restoreAsync re-parks checkpointed buffered updates and update ages, so a
// resumed session folds exactly what the killed one would have.
func (s *session) restoreAsync(ck *Checkpoint) error {
	for _, b := range ck.Buffered {
		if b.Client < 0 || b.Client >= len(s.conns) {
			return fmt.Errorf("transport: checkpoint buffers update for client %d, session has %d slots", b.Client, len(s.conns))
		}
		if len(b.Params) != len(s.global) {
			return fmt.Errorf("transport: checkpoint buffered update has %d params, model has %d", len(b.Params), len(s.global))
		}
		cp := b
		cp.Params = append([]float64(nil), b.Params...)
		s.buffered[b.Client] = &cp
	}
	if len(ck.UpdateAges) > 0 {
		if len(ck.UpdateAges) != s.updAges.Len() {
			return fmt.Errorf("transport: checkpoint has %d update ages, session has %d slots", len(ck.UpdateAges), s.updAges.Len())
		}
		for k, age := range ck.UpdateAges {
			s.updAges.SetAge(k, age)
		}
		s.updAges.SetTicks(ck.UpdateTicks)
	}
	s.metrics.buffered.Set(float64(s.bufferedCount()))
	return nil
}
