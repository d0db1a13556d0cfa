package transport

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/engine"
)

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

// asyncEligible is the population a new cohort may be sampled from: active,
// not busy, and no parked update waiting to fold (a buffered client folds
// this round; re-assigning it would double-count it).
func (s *session) asyncEligible() []bool {
	elig := make([]bool, len(s.conns))
	for i, a := range s.active {
		elig[i] = a && !s.busy(i) && s.buffered[i] == nil
	}
	return elig
}

// busy reports whether slot i is active and still owes the update of a
// buffered gather that stopped waiting for it: it gets no frame and joins no
// cohort until the update lands and is parked.
func (s *session) busy(i int) bool { return s.active[i] && s.conns[i].want != 0 }

// awaitAvail dispatches while the assignable population plus the parked
// folds cannot reach quorum but stragglers are still in flight — the next
// arrival may unblock either set. Bounded by the current deadline; on
// timeout the attempt proceeds (and fails quorum) so the retry loop stays in
// charge.
func (s *session) awaitAvail() {
	ctx, cancel := s.phaseCtx()
	defer cancel()
	for {
		avail, busy := 0, 0
		for i, a := range s.active {
			switch {
			case s.busy(i):
				busy++
			case a:
				avail++ // assignable or already parked (folds this round)
			}
		}
		if avail >= s.minClients || busy == 0 || !s.dispatch(ctx.Done()) {
			return
		}
	}
}

// park validates and decodes slot i's late update m, assigned in round
// assigned, immediately — against the broadcast reference of that round,
// which is intact because busy slots are skipped by later broadcasts — and
// buffers an owned copy for the fold of round s.round. Overripe updates (past
// MaxStaleness) are dropped: their information content is the same argument
// MaxStale makes for δ rows. Invalid ones evict the sender, exactly like the
// fresh path.
func (s *session) park(i, assigned int, m *Message) {
	round := s.round
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
	if age := round - assigned; s.cfg.MaxStaleness > 0 && age > s.cfg.MaxStaleness {
		s.logf("dropped client %d's update for round %d (age %d > max staleness %d)",
			i, assigned, age, s.cfg.MaxStaleness)
		return
	}
	s.buffered[i] = &BufferedUpdate{
		Client: i,
		Round:  assigned,
		Loss:   m.Loss,
		Params: params,
	}
	s.metrics.buffered.Set(float64(s.bufferedCount()))
	s.logf("buffered client %d's update for round %d (arrived in round %d)", i, assigned, round)
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
