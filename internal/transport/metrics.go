package transport

import (
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// deltaAgeBuckets covers the δ-staleness-age histogram: ages are whole
// rounds, fresh rows sit at 1, long-evicted clients drift right.
var deltaAgeBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48}

// serverMetrics is one session's view into a telemetry registry. All
// series are registered up front (registration is idempotent, so repeated
// sessions on one registry share counters) and every record operation on
// the round path is a single atomic update.
type serverMetrics struct {
	rounds      *telemetry.Counter
	retries     *telemetry.Counter
	evictions   *telemetry.Counter
	rejoins     *telemetry.Counter
	checkpoints *telemetry.Counter

	roundSec      *telemetry.Histogram
	joinSec       *telemetry.Histogram
	broadcastSec  *telemetry.Histogram
	gatherSec     *telemetry.Histogram
	deltaSyncSec  *telemetry.Histogram
	checkpointSec *telemetry.Histogram

	// bytesSent/bytesRecv carry the session algorithm as a baked-in label,
	// so a scrape separates rFedAvg+'s O(dN) second synchronization from
	// FedAvg's single exchange — the communication axis of Table III
	// measured on the live wire rather than computed.
	bytesSent *telemetry.Counter
	bytesRecv *telemetry.Counter
	// elided counts MsgAssign frames sent without the model because the
	// client already held it — why down_bytes sits a model below 2 per round.
	elided *telemetry.Counter
	// sent, recv and nElided are this session's own share of the three series
	// above, which every session of the algorithm on one registry adds to: the
	// ledger's per-attempt byte and elision columns are deltas of these.
	sent, recv, nElided atomic.Int64

	// schemeSent/schemeRecv split the vector-payload bytes (dense float64
	// plus packed data, without frame headers) by wire codec, so a scrape
	// shows how much of the traffic each negotiated scheme carries.
	schemeSent [compress.NumSchemes]*telemetry.Counter
	schemeRecv [compress.NumSchemes]*telemetry.Counter

	staleAge  *telemetry.Histogram
	staleRows *telemetry.Gauge
	occRows   *telemetry.Gauge

	// Async-mode series: how long each client takes to deliver its update
	// (the adaptive deadline controller's input), the controller's current
	// deadline, the number of updates folded late with a staleness discount,
	// the buffered-updates backlog, and the per-client model-update ages.
	clientRoundSec   *telemetry.Histogram
	adaptiveDeadline *telemetry.Gauge
	lateFolds        *telemetry.Counter
	buffered         *telemetry.Gauge
	updateAge        *telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry, algo Algorithm) *serverMetrics {
	if reg == nil {
		reg = telemetry.Default()
	}
	phase := func(name string) *telemetry.Histogram {
		return reg.Histogram(`rfl_phase_seconds{phase="`+name+`"}`,
			"wall time of one protocol phase of a round attempt", telemetry.DefDurationBuckets)
	}
	al := string(algo)
	m := &serverMetrics{
		rounds:      reg.Counter("rfl_rounds_completed_total", "successfully completed federated rounds"),
		retries:     reg.Counter("rfl_round_retries_total", "round attempts that failed quorum and were retried"),
		evictions:   reg.Counter("rfl_evictions_total", "clients evicted from sessions"),
		rejoins:     reg.Counter("rfl_rejoins_total", "evicted clients re-admitted into a session"),
		checkpoints: reg.Counter("rfl_checkpoints_total", "round checkpoints written"),

		roundSec:      reg.Histogram("rfl_round_seconds", "wall time of one round attempt", telemetry.DefDurationBuckets),
		joinSec:       phase("join"),
		broadcastSec:  phase("broadcast"),
		gatherSec:     phase("gather"),
		deltaSyncSec:  phase("delta_sync"),
		checkpointSec: phase("checkpoint"),

		bytesSent: reg.Counter(`rfl_bytes_sent_total{algo="`+al+`"}`,
			"bytes sent to clients by the server, per algorithm"),
		bytesRecv: reg.Counter(`rfl_bytes_received_total{algo="`+al+`"}`,
			"bytes received from clients by the server, per algorithm"),
		elided: reg.Counter("rfl_model_elided_total",
			"MsgAssign frames sent without the model the client already held from MsgDeltaReq"),

		staleAge: reg.Histogram("rfl_delta_staleness_age", "per-round ages of the δ-table rows",
			deltaAgeBuckets),
		staleRows: reg.Gauge("rfl_delta_stale_rows", "δ rows currently beyond MaxStaleness (excluded from targets)"),
		occRows: reg.Gauge("rfl_delta_occupied_rows",
			"δ-table rows with allocated storage (clients that ever reported a map)"),

		clientRoundSec: reg.Histogram("rfl_client_round_seconds",
			"per-client wall time from assignment to update delivery", telemetry.DefDurationBuckets),
		adaptiveDeadline: reg.Gauge("rfl_adaptive_deadline_seconds",
			"current adaptive deadline bounding each protocol phase of a round"),
		lateFolds: reg.Counter("rfl_late_folds_total",
			"buffered updates folded into a later round with a staleness discount"),
		buffered: reg.Gauge("rfl_buffered_updates",
			"updates currently parked for a later round's aggregation"),
		updateAge: reg.Histogram("rfl_update_staleness_age",
			"per-round ages of the clients' last aggregated model updates", deltaAgeBuckets),
	}
	for s := compress.SchemeDense; int(s) < compress.NumSchemes; s++ {
		m.schemeSent[s] = reg.Counter(`rfl_codec_payload_bytes_total{dir="sent",scheme="`+s.String()+`"}`,
			"vector-payload bytes sent by the server, per wire codec scheme")
		m.schemeRecv[s] = reg.Counter(`rfl_codec_payload_bytes_total{dir="recv",scheme="`+s.String()+`"}`,
			"vector-payload bytes received by the server, per wire codec scheme")
	}
	return m
}

// observeDeltaAges records every row's age after the round's Tick and
// refreshes the stale-row gauge.
func (m *serverMetrics) observeDeltaAges(t *core.DeltaTable, maxStale int) {
	stale := 0
	t.ForEachAge(func(age int) {
		m.staleAge.Observe(float64(age))
		if maxStale > 0 && age > maxStale {
			stale++
		}
	})
	m.staleRows.Set(float64(stale))
	m.occRows.Set(float64(t.OccupiedCount()))
}

// observeUpdateAges records every slot's model-update age after the round's
// Tick (the AgeTrack twin of observeDeltaAges).
func (m *serverMetrics) observeUpdateAges(t *core.AgeTrack) {
	t.ForEach(func(_, age int) { m.updateAge.Observe(float64(age)) })
}

// meter wraps a connection so every framed message is counted into the
// session's per-algorithm byte series. The wrapper sits *inside* any
// deadlineConn (sendCtx/recvCtx type-assert *deadlineConn on the outside),
// so deadline semantics are untouched.
func (m *serverMetrics) meter(c Conn) Conn {
	return &meteredConn{Conn: c, m: m}
}

type meteredConn struct {
	Conn
	m *serverMetrics
}

// countSchemes attributes a message's vector payloads to the per-scheme
// byte series. Dense Params/Delta slices count under "dense"; packed vectors
// under their scheme tag.
func countSchemes(ctrs *[compress.NumSchemes]*telemetry.Counter, m *Message) {
	if n := 8 * (len(m.Params) + len(m.Delta)); n > 0 {
		ctrs[compress.SchemeDense].Add(int64(n))
	}
	if m.PParams.N > 0 && m.PParams.Scheme.Valid() {
		ctrs[m.PParams.Scheme].Add(int64(len(m.PParams.Data)))
	}
	if m.PDelta.N > 0 && m.PDelta.Scheme.Valid() {
		ctrs[m.PDelta.Scheme].Add(int64(len(m.PDelta.Data)))
	}
}

// elide counts one MsgAssign sent without the model.
func (m *serverMetrics) elide() {
	m.elided.Inc()
	m.nElided.Add(1)
}

func (c *meteredConn) Send(m *Message) error {
	if err := c.Conn.Send(m); err != nil {
		return err
	}
	n := int64(m.EncodedSize())
	c.m.bytesSent.Add(n)
	c.m.sent.Add(n)
	countSchemes(&c.m.schemeSent, m)
	return nil
}

func (c *meteredConn) Recv() (*Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	n := int64(m.EncodedSize())
	c.m.bytesRecv.Add(n)
	c.m.recv.Add(n)
	countSchemes(&c.m.schemeRecv, m)
	return m, nil
}
