package transport

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ErrTimeout marks a phase deadline that fired before a send to a peer
// completed or the peer answered. The server treats it like any other
// connection error: the client is evicted and the round continues over the
// survivors.
var ErrTimeout = errors.New("transport: deadline exceeded")

// skipBudget is how many frames nobody asked for — duplicated deliveries,
// leftovers of failed round attempts — a peer may send between two taken
// ones before it counts as failed.
const skipBudget = 4

// peer is how the server holds every client conn, initial or rejoining. It
// meters the conn's frames into the session's byte series, and its pump,
// started by session.wrap, is the conn's only reader: every frame, and the
// error that ends the conn, goes onto the session inbox, which only the
// dispatcher (session.dispatch) reads. The fields after sending belong to the
// dispatcher's goroutine.
type peer struct {
	Conn
	m *serverMetrics
	// sending is set while a send under a deadline is in flight; the send
	// phase's watchdog claims it when the deadline fires (abandon).
	sending atomic.Bool

	// slot is the slot the peer holds, -1 while a rejoiner waits in pending.
	slot int
	// join is the peer's handshake, nil until its first frame arrived.
	join *Message
	// want and round name the frame the peer owes a gather (collect); want is
	// 0 when it owes nothing. An update still owed after its gather returned
	// is what makes an async slot busy.
	want  MsgType
	round int
	wait  telemetry.ActiveSpan // the owed frame's wait, ended when it settles
	// skips counts the frames nobody asked for since the last one taken.
	skips int
	// err is why the peer failed — a read error, a bad handshake, a flood —
	// once the dispatcher has seen it (session.fail).
	err error
}

// arrival is one frame a pump read, or the error that ended its conn, and
// its stamp: the frame's (Message.at), or for an error the peer's last
// frame's.
type arrival struct {
	p   *peer
	m   *Message
	err error
	at  time.Duration
}

// wrap takes c into the session as slot's peer (-1: a rejoiner) and starts
// its pump.
func (s *session) wrap(c Conn, slot int) *peer {
	p := &peer{Conn: c, m: s.metrics, slot: slot}
	go p.pump(s.inbox, s.done)
	return p
}

// pump reads the conn until it fails, pushing each frame, then the error,
// onto inbox. It stops pushing once done is closed: the session is over.
func (p *peer) pump(inbox chan<- arrival, done <-chan struct{}) {
	var at time.Duration
	for {
		m, err := p.Conn.Recv()
		if err == nil {
			at = m.at
			n := int64(m.EncodedSize())
			p.m.bytesRecv.Add(n)
			p.m.recv.Add(n)
			countSchemes(&p.m.schemeRecv, m)
		}
		select {
		case inbox <- arrival{p, m, err, at}:
		case <-done:
			return
		}
		if err != nil {
			return
		}
	}
}

// Send sends m and meters it.
func (p *peer) Send(m *Message) error {
	if err := p.Conn.Send(m); err != nil {
		return err
	}
	n := int64(m.EncodedSize())
	p.m.bytesSent.Add(n)
	p.m.sent.Add(n)
	countSchemes(&p.m.schemeSent, m)
	return nil
}

// send sends m under ctx's deadline, if any, which the send phase's watchdog
// enforces (session.sendPhase): a send still in flight when the deadline
// fires has its conn closed and returns ErrTimeout, and the server evicts the
// peer. Either way the send is over when send returns.
func (p *peer) send(ctx context.Context, m *Message) error {
	// Flag, then check: a watchdog that fires after the check sees the flag.
	p.sending.Store(true)
	if ctx.Err() == nil {
		err := p.Send(m)
		if p.sending.CompareAndSwap(true, false) {
			return err
		}
	} else {
		p.sending.Store(false)
	}
	return fmt.Errorf("%w: send: %v", ErrTimeout, ctx.Err())
}

// abandon claims p's send in flight, if any, and closes the conn, which
// makes that send return.
func (p *peer) abandon() {
	if p.sending.CompareAndSwap(true, false) {
		p.Close()
	}
}

// gathering is the collect in progress: the frame it waits for, how many
// peers delivered it and how many still owe it.
type gathering struct {
	want      MsgType
	round     int
	got, open int
}

// now is a closed channel: a dispatch with it as stop handles only what has
// already arrived.
var now = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// dispatch handles the session's next event: the arrival with the smallest
// (stamp, slot) in hand (see take). With nothing in hand a live session, whose
// stamps are all 0, waits for an arrival, for stop, or for a conn off
// cfg.Rejoin, which joins pending. A virtual session (ServePipes) has every
// owed frame in hand, and its phase deadline is one more event: past phase
// start + curDeadline() the clock moves to it and the phase's context ends.
// dispatch reports false, having handled nothing, once stop is closed (a nil
// stop never is) and nothing is in hand or queued; in a virtual session also
// at the deadline, with nothing in hand (no frame is owed), and under a closed
// stop at a stamp past the clock.
func (s *session) dispatch(stop <-chan struct{}) bool {
	for s.take(); len(s.ahead) == 0; s.take() {
		if s.cfg.clock != nil {
			return false
		}
		select {
		case a := <-s.inbox:
			s.ahead = append(s.ahead, a)
		case c, ok := <-s.cfg.Rejoin:
			if !ok {
				s.cfg.Rejoin = nil
			} else {
				s.pending = append(s.pending, s.wrap(c, -1))
			}
			return true
		case <-stop:
			if len(s.inbox) == 0 && len(s.cfg.Rejoin) == 0 {
				return false
			}
		}
	}
	j := 0
	for k, a := range s.ahead {
		if a.at < s.ahead[j].at || a.at == s.ahead[j].at && a.p.slot < s.ahead[j].p.slot {
			j = k
		}
	}
	a := s.ahead[j]
	if end := s.start + s.curDeadline(); s.expire != nil && a.at > end {
		*s.cfg.clock = end
		s.expire()
		return false
	}
	if clock := s.cfg.clock; clock != nil {
		select {
		case <-stop:
			if a.at > *clock {
				return false
			}
		default:
		}
		*clock = max(*clock, a.at)
	}
	s.ahead = slices.Delete(s.ahead, j, j+1)
	s.handle(a)
	return true
}

// take moves every arrival the pumps have pushed into hand (ahead) and, in a
// virtual session, waits until every owed frame is in hand.
func (s *session) take() {
	for {
		select {
		case a := <-s.inbox:
			s.ahead = append(s.ahead, a)
		default:
			if s.cfg.clock == nil || !s.unseen() {
				return
			}
			s.ahead = append(s.ahead, <-s.inbox)
		}
	}
}

// unseen reports whether a peer owes a frame it has no arrival in hand for:
// an active peer the frame a gather asked of it, a pending rejoiner its
// handshake.
func (s *session) unseen() bool {
	owes := func(p *peer) bool {
		return p.err == nil && !slices.ContainsFunc(s.ahead, func(a arrival) bool { return a.p == p })
	}
	for i, p := range s.conns {
		if s.active[i] && p.want != 0 && owes(p) {
			return true
		}
	}
	return slices.ContainsFunc(s.pending, func(p *peer) bool { return p.join == nil && owes(p) })
}

// handle routes one arrival. A frame from a replaced, evicted or failed conn
// is dropped; an error fails its peer; a peer's first frame is its
// handshake; the frame a peer owes settles it; anything else is skipped,
// up to skipBudget in a row.
func (s *session) handle(a arrival) {
	p := a.p
	switch {
	case p.err != nil:
	case p.slot < 0:
		s.pendingFrame(p, a)
	case s.conns[p.slot] != p || !s.active[p.slot]:
	case a.err != nil:
		s.fail(p, a.err)
	case p.join == nil:
		if err := checkJoin(a.m); err != nil {
			s.fail(p, err)
			return
		}
		p.join = a.m
		s.deliver(p, a)
	case p.want != 0 && a.m.Type == p.want && int(a.m.Round) == p.round:
		s.deliver(p, a)
	default:
		if p.skips++; p.skips > skipBudget {
			s.fail(p, fmt.Errorf("got message type %d round %d, want %d round %d", a.m.Type, a.m.Round, p.want, p.round))
		}
	}
}

// checkJoin vets a peer's first frame: a MsgJoin with a positive sample count.
func checkJoin(m *Message) error {
	switch {
	case m.Type != MsgJoin:
		return fmt.Errorf("sent %d, want join", m.Type)
	case m.NumSamples <= 0:
		return fmt.Errorf("joined with %d samples", m.NumSamples)
	}
	return nil
}

// pendingFrame handles a frame from a rejoiner in pending. The first is its
// handshake, which place reads at the next boundary; a bad one, a failed
// conn, or any frame after the handshake refuses the rejoiner and closes it.
func (s *session) pendingFrame(p *peer, a arrival) {
	err := a.err
	if err == nil && p.join == nil {
		if err = checkJoin(a.m); err == nil {
			p.join = a.m
			return
		}
	}
	if err == nil {
		err = fmt.Errorf("sent %d while waiting for a slot", a.m.Type)
	}
	p.err = err
	p.Close()
	s.pending = slices.DeleteFunc(s.pending, func(q *peer) bool { return q == p })
	s.logf("rejoin refused: %v", err)
}

// deliver settles the frame a, which p owed. The gather in progress takes it
// and the adaptive deadline learns its wait (virtual: stamp − phase start); a
// late update — its gather stopped waiting for it — is parked for the next fold.
func (s *session) deliver(p *peer, a arrival) {
	i, m, d := p.slot, a.m, p.wait.End()
	if s.cfg.clock != nil {
		d = a.at - s.start
	}
	current := p.want == s.coll.want && p.round == s.coll.round
	p.want, p.skips = 0, 0
	if !current {
		s.park(i, p.round, m)
		return
	}
	s.ioMsgs[i] = m
	s.coll.got++
	s.coll.open--
	if s.ctrl != nil && m.Type == MsgUpdate {
		s.ctrl.observe(i, d)
	}
}

// fail records that p failed and closes its conn, which ends its pump. A
// peer owing the gather in progress fails that gather, which evicts it when
// it returns; a busy async slot, owing an update its gather gave up on, is
// evicted now; an idle slot is flagged and reaped at the next boundary.
func (s *session) fail(p *peer, err error) {
	p.err = err
	p.Close()
	switch {
	case p.want == 0:
	case p.want == s.coll.want && p.round == s.coll.round:
		p.wait.End()
		s.coll.open--
	default:
		p.wait.End()
		s.evict(p.slot, s.round, fmt.Sprintf("gather: %v", err))
	}
}

// collect waits for the want frame of round from members, until k of them
// delivered it, none still owes it, or ctx's deadline fires. A member whose
// conn failed is evicted. One that did not deliver is evicted too in a
// synchronous gather, and stays busy — owing the update, which is parked
// when it lands — in a buffered (BufferK) update gather. Evictions apply in
// slot order when collect returns. The frames come back indexed by slot:
// session scratch, valid until the next collect. Each member's wait is a
// span under parent, but the join's.
func (s *session) collect(ctx context.Context, want MsgType, round int, members []int, k int, parent telemetry.SpanContext) []*Message {
	span, what := "gather_client", "gather"
	switch want {
	case MsgDelta:
		span = "delta_client"
	case MsgJoin:
		what = "join"
	}
	clear(s.ioMsgs)
	s.coll = gathering{want: want, round: round}
	for i, p := range s.conns {
		if !s.active[i] {
			continue
		}
		if p.want == want && p.round == round {
			s.coll.open++ // an earlier attempt's straggler delivers to this one
		}
	}
	for _, i := range members {
		if p := s.conns[i]; s.active[i] && p.err == nil {
			p.want, p.round = want, round
			if want != MsgJoin {
				p.wait = s.cfg.Tracer.Start(span, parent)
				p.wait.Round, p.wait.Client = round, i
			}
			s.coll.open++
		}
	}
	for s.coll.got < k && s.coll.open > 0 && s.dispatch(ctx.Done()) {
	}
	s.coll = gathering{}
	buffered := want == MsgUpdate && s.cfg.BufferK > 0
	for _, i := range members {
		p := s.conns[i]
		switch {
		case !s.active[i] || s.ioMsgs[i] != nil:
		case p.err != nil:
			s.evict(i, round, fmt.Sprintf("%s: %v", what, p.err))
		case !buffered:
			p.wait.End()
			s.evict(i, round, fmt.Sprintf("%s: %v", what, ErrTimeout))
		}
	}
	return s.ioMsgs
}

// boundary runs before every round attempt: it handles what already
// arrived, reaps — evicts — every active slot whose conn failed, and then
// places the rejoiners whose handshake arrived. A dead peer outside the
// cohort is found here, by its pump, though nothing was sent to it.
func (s *session) boundary(round int) {
	s.round = round
	for s.dispatch(now) {
	}
	for i, p := range s.conns {
		if s.active[i] && p.err != nil {
			s.evict(i, round, fmt.Sprintf("peer gone: %v", p.err))
		}
	}
	s.placePending()
}

// placePending places every handshaked rejoiner that finds a free slot, in
// queue order; the rest stay pending.
func (s *session) placePending() {
	s.pending = slices.DeleteFunc(s.pending, func(p *peer) bool { return p.join != nil && s.place(p) })
}

// waitForQuorum dispatches, for up to one deadline, until rejoiners placed
// as their handshakes arrive bring the active slots to quorum; it reports
// whether quorum holds.
func (s *session) waitForQuorum() bool {
	ctx, cancel := s.phaseCtx()
	defer cancel()
	for count(s.active) < s.minClients {
		if s.cfg.Rejoin == nil && !slices.ContainsFunc(s.pending, func(p *peer) bool { return p.join == nil }) {
			return false // no rejoiner can come
		}
		if !s.dispatch(ctx.Done()) {
			return false
		}
		s.placePending()
	}
	return true
}

// closePending closes the rejoiners that never found a slot, silent ones
// included, so their clients observe EOF instead of blocking forever on a
// session that has ended.
func (s *session) closePending() {
	for _, p := range s.pending {
		p.Close()
	}
	s.pending = nil
}

// phaseCtx returns the per-phase deadline context; with no deadline in force
// its Done channel is nil and a dispatch under it never times out. A virtual
// session's deadline is the stamp start + curDeadline(), which dispatch fires
// and the phase's cancel retires: no deadline outlives its phase.
func (s *session) phaseCtx() (context.Context, context.CancelFunc) {
	d := s.curDeadline()
	switch {
	case d <= 0:
		return context.Background(), func() {}
	case s.cfg.clock == nil:
		return context.WithTimeout(context.Background(), d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.start, s.expire = *s.cfg.clock, cancel
	return ctx, func() { s.expire = nil; cancel() }
}

// curDeadline is the deadline currently in force: the adaptive controller's
// bound when enabled, else the fixed RoundDeadline.
func (s *session) curDeadline() time.Duration {
	if s.ctrl != nil {
		return s.ctrl.current()
	}
	return s.cfg.RoundDeadline
}
