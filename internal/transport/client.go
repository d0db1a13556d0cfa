package transport

import (
	"fmt"
	"io"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/health"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ClientConfig parameterizes a federated client process.
type ClientConfig struct {
	Builder nn.Builder
	// ModelSeed must match the server's initial model so architectures and
	// flat layouts agree.
	ModelSeed int64
	Seed      int64
	// ClientID is a slot hint carried in the join handshake. Fresh
	// sessions assign slots positionally and ignore it; when rejoining a
	// session this client was evicted from, the server re-admits it into
	// this slot if that slot is free (else the lowest evicted one).
	ClientID int

	LocalSteps int // E
	BatchSize  int // B
	LR         opt.Schedule
	// NewOptimizer builds the local solver; nil means plain SGD.
	NewOptimizer func() opt.Optimizer
	// Lambda is the regularization weight λ, used when the server runs
	// rFedAvg+ (it is harmless otherwise: a zero-length target disables it).
	Lambda float64

	// Caps advertises the wire-compression schemes this client accepts in
	// its join handshake; the server never picks a scheme outside them. The
	// zero value advertises every scheme the build knows (compress.AllCaps),
	// so compression is purely server-policy-driven by default.
	Caps compress.Caps
	// ErrorFeedback carries the quantization residual of each lossy update
	// into the next round's encode (EF-SGD style), recovering accuracy lost
	// to aggressive schemes. The residual is client-local state: it starts
	// at zero and is lost on crash/rejoin, so runs that must be bitwise
	// resumable should leave it off.
	ErrorFeedback bool

	// Tracer, when non-nil, records the client's side of each round
	// (client_round → local_steps/mmd_grad/serialize, compute_delta) with
	// the span context received in the assign frame header as parent, so a
	// merged stream shows client work inside the server's round tree.
	Tracer *telemetry.Tracer
	// Health, when non-nil, self-monitors this client: each round's local
	// loss and update feed a single-client monitor, so the norm z-score
	// runs against the client's own cross-round history (the cohort-wide
	// signals stay inert with a cohort of one).
	Health *health.Monitor
}

// RunClient joins a federated session on conn with the given local shard
// and participates until MsgDone, returning the final global parameters.
func RunClient(conn Conn, shard *data.Dataset, cfg ClientConfig) ([]float64, error) {
	return runClient(conn, shard, cfg, new(clientCodec))
}

// runClient is RunClient on a codec the caller can look into afterwards.
func runClient(conn Conn, shard *data.Dataset, cfg ClientConfig, cc *clientCodec) ([]float64, error) {
	if cfg.LocalSteps <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("transport: client needs positive LocalSteps and BatchSize")
	}
	if cfg.LR == nil {
		cfg.LR = opt.ConstLR(0.1)
	}
	if cfg.NewOptimizer == nil {
		cfg.NewOptimizer = func() opt.Optimizer { return opt.NewSGD() }
	}
	// Between frames the client holds what outlives one: weights, shard,
	// optimizer, codec state and δ. The gradients and the arena, with the
	// round's RNG in it, are borrowed for each local training or δ pass and
	// given back when it ends, so an idle slot holds neither — not even the
	// gradients cfg.Builder made.
	trainer := engine.Trainer{Net: cfg.Builder(cfg.ModelSeed), Opt: cfg.NewOptimizer()}
	net := trainer.Net
	net.AdoptGrads(nil)
	nParams := net.NumParams()
	caps := cfg.Caps
	if caps == 0 {
		caps = compress.AllCaps()
	}
	*cc = clientCodec{caps: caps, ef: cfg.ErrorFeedback, seed: cfg.Seed}
	// The δ pass's result and the two reply headers live as long as the
	// session: Send has finished reading a reply when it returns.
	delta := make([]float64, net.FeatureDim)
	var upd, dm Message

	if err := conn.Send(&Message{Type: MsgJoin, ClientID: int32(cfg.ClientID),
		NumSamples: int64(shard.Len()), Caps: caps}); err != nil {
		return nil, err
	}

	// load makes params, a frame's model, the weights. A dense frame nobody
	// needs after training — no lossy uplink to difference against it, no
	// self-monitor — becomes the weights: no copy, and nothing at all when the
	// conn read it into them. From then on lent is those weights, and a conn
	// that can (streamConn and inprocConn lend; a wrapped one cannot) is
	// offered them before each Recv: every frame that carries a model replaces
	// them anyway. Any other frame is copied in, and if it landed in the lent
	// weights it keeps them and the network moves onto storage of its own.
	lender, _ := conn.(interface{ lend([]float64) })
	var lent []float64
	load := func(params []float64) {
		if cc.ref == nil && cfg.Health == nil {
			net.AdoptFlat(params)
			lent = params
			return
		}
		if sameVector(params, lent) {
			net.AdoptFlat(make([]float64, nParams))
		}
		net.SetFlat(params)
		lent = nil
	}

	// held is the round whose MsgAssign may arrive without a model: net still
	// carries it from the previous round's MsgDeltaReq (computing δ only reads
	// the weights). answered is the last round an assign was answered for.
	held, answered := int32(-1), int32(-1)
	for {
		if lender != nil && lent != nil {
			lender.lend(lent)
		}
		m, err := conn.Recv()
		if err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("transport: server closed before done")
			}
			return nil, err
		}
		switch m.Type {
		case MsgAssign:
			elided := len(m.Params) == 0 && m.PParams.N == 0
			if elided && m.Round != held {
				if m.Round == answered {
					continue // duplicate of an elided assign already answered
				}
				return nil, fmt.Errorf("transport: round-%d assign carries no model and none is held", m.Round)
			}
			held, answered = -1, m.Round
			// The assign frame carries the server's round span context;
			// everything this client does for the round nests under it.
			cr := cfg.Tracer.Start("client_round", m.SpanContext())
			cr.Round, cr.Client = int(m.Round), int(m.ClientID)
			// The server clamps Want to the advertised caps, but a buggy or
			// hostile one might not; clamp again so the reply never carries a
			// scheme this client did not offer.
			want := compress.Negotiate(m.Want, cc.caps)
			cc.up = want
			// params is the model this round trains from: the packed update is
			// the difference against it and the self-monitor measures from it.
			// An elided assign's model is the one net already holds: the slice
			// it was loaded from where the codec kept it, else a flat copy.
			var params []float64
			switch {
			case !elided:
				var err error
				if params, err = cc.downParams(m, nParams); err != nil {
					return nil, err
				}
				load(params)
			case cc.ref != nil:
				params = cc.ref
			case want != compress.SchemeDense || cfg.Health != nil:
				params = net.GetFlat()
			}
			target, err := cc.downTarget(m, net.FeatureDim)
			if err != nil {
				return nil, err
			}
			trainer.Opt.Reset()
			// Batch sampling is keyed to (Seed, round), not a session-long
			// stream: a client that crashed and rejoined at round r draws
			// the same mini-batches as one that never left, which keeps a
			// resumed session bitwise-identical to an uninterrupted one.
			trainer.Arena = nn.GetArena()
			rng := trainer.Arena.Rand(clientRoundSeed(cfg.Seed, m.Round))
			grads := tensor.GetFloats(nParams)
			net.AdoptGrads(grads)
			round, e := int(m.Round), cfg.LocalSteps
			o := engine.LocalSteps{E: e, B: cfg.BatchSize,
				LR: func(i int) float64 { return cfg.LR.LR(round*e + i) }}
			// A zero-length target is "no regulariser": FedAvg, or round 0.
			if len(target) > 0 && cfg.Lambda != 0 {
				o.FeatGrad = core.RegTerm(trainer.Arena, target, cfg.Lambda)
			}
			ls := cfg.Tracer.Start("local_steps", cr.Context())
			ls.Round, ls.Client = cr.Round, cr.Client
			loss := trainer.Steps(shard, rng, o, ls)
			ls.End()
			net.AdoptGrads(nil)
			tensor.PutFloats(grads)
			nn.PutArena(trainer.Arena)
			trainer.Arena = nil
			ser := cfg.Tracer.Start("serialize", cr.Context())
			ser.Round, ser.Client = cr.Round, cr.Client
			out := &upd
			*out = Message{
				Type: MsgUpdate, Round: m.Round, ClientID: m.ClientID,
				NumSamples: int64(shard.Len()), Loss: loss,
			}
			// The dense reply is the weights themselves — nothing trains until
			// Send returns; a packed one is taken off the network's tensors.
			if want == compress.SchemeDense {
				out.Params = net.Flat()
			} else {
				out.PParams = cc.encodeUpdate(want, int(m.Round), int(m.ClientID), net.Params(), params)
			}
			err = conn.Send(out)
			ser.End()
			cr.End()
			if err != nil {
				return nil, err
			}
			if cfg.Health != nil {
				cfg.Health.ObserveSelf(int(m.Round), int(m.ClientID), loss, net.Flat(), params)
			}
		case MsgDeltaReq:
			cd := cfg.Tracer.Start("compute_delta", m.SpanContext())
			cd.Round, cd.Client = int(m.Round), int(m.ClientID)
			params, err := cc.downParams(m, nParams)
			if err != nil {
				return nil, err
			}
			load(params)
			held = m.Round + 1
			arena := nn.GetArena()
			core.ComputeDeltaInto(delta, arena, net, shard, 0)
			nn.PutArena(arena)
			cd.End()
			out := &dm
			*out = Message{Type: MsgDelta, Round: m.Round, ClientID: m.ClientID}
			if want := compress.Negotiate(m.Want, cc.caps); want == compress.SchemeDense {
				out.Delta = delta
			} else {
				out.PDelta = cc.encodeDelta(want, int(m.Round), int(m.ClientID), delta)
			}
			if err := conn.Send(out); err != nil {
				return nil, err
			}
		case MsgSkip:
			// Reserved: this server never sends it, older ones did.
		case MsgDone:
			return m.Params, nil
		default:
			return nil, fmt.Errorf("transport: unexpected message type %d", m.Type)
		}
	}
}

// clientCodec is the client half of the compressed wire path: the decode
// buffers of packed downlink payloads and, for a lossy uplink, the reference
// the update is difference-coded against, the carry it is quantized in and
// its bytes. Buffers grow once to model size, so the steady-state round loop
// does not allocate in the codec layer.
type clientCodec struct {
	caps compress.Caps
	ef   bool
	seed int64
	up   compress.Scheme // uplink scheme of the last assign

	params []float64 // decoded downlink model
	target []float64 // decoded downlink δ target
	// ref is the slice the network was last loaded from, kept while a packed
	// update may be difference-coded against it: params, or a dense frame's
	// own Params.
	ref []float64
	// carry is where the update is formed and quantized: local − ref plus,
	// under error feedback, what the last quantization left behind — held
	// here between rounds, zero at (re)join.
	carry   []float64
	packed  []byte // update encode buffer
	packedD []byte // δ encode buffer
}

// downParams returns a frame's model params, decoding the packed form into
// a reused buffer when present. A frame whose payload is not exactly the
// n-parameter model is an error — nothing downstream is sized by the header.
func (c *clientCodec) downParams(m *Message, n int) ([]float64, error) {
	if len(m.Params)+int(m.PParams.N) != n || (m.PParams.N != 0 && len(m.Params) != 0) {
		return nil, fmt.Errorf("transport: message type %d carries %d dense + %d packed params, model has %d",
			m.Type, len(m.Params), m.PParams.N, n)
	}
	if m.PParams.N == 0 {
		c.ref = nil
		if c.up != compress.SchemeDense {
			c.ref = m.Params
		}
		return m.Params, nil
	}
	var err error
	c.ref, err = c.decode(&c.params, m.PParams)
	return c.ref, err
}

// downTarget returns a frame's δ target, decoding the packed form when
// present. No target at all means "no regulariser"; one that is not the
// d-wide feature map is an error, as a wrong-sized model is.
func (c *clientCodec) downTarget(m *Message, d int) ([]float64, error) {
	if n := len(m.Delta) + int(m.PDelta.N); n != 0 && n != d || (m.PDelta.N != 0 && len(m.Delta) != 0) {
		return nil, fmt.Errorf("transport: message type %d carries %d dense + %d packed δ target values, feature map has %d",
			m.Type, len(m.Delta), m.PDelta.N, d)
	}
	if m.PDelta.N == 0 {
		return m.Delta, nil
	}
	return c.decode(&c.target, m.PDelta)
}

// decode decodes pv into *buf, grown to fit once and reused after.
func (c *clientCodec) decode(buf *[]float64, pv PackedVec) ([]float64, error) {
	dst := resizeFloats(buf, int(pv.N))
	if err := compress.DecodeInto(dst, pv.Scheme, pv.Data); err != nil {
		return nil, fmt.Errorf("transport: packed downlink: %w", err)
	}
	return dst, nil
}

// encodeUpdate difference-codes the trained model against ref, the model the
// round started from, folds in the error-feedback carry, and quantizes the sum
// where it stands under s with the (Seed, round, slot)-keyed RNG — so a
// resumed client (EF off) reproduces the exact payload bytes of an
// uninterrupted run. With error feedback the same pass leaves the new carry.
func (c *clientCodec) encodeUpdate(s compress.Scheme, round, slot int, local []*nn.Param, ref []float64) PackedVec {
	u := resizeFloats(&c.carry, len(ref))
	off := 0
	for _, p := range local {
		w := p.W.Data
		seg, r := u[off:off+len(w)], ref[off:off+len(w)]
		off += len(w)
		if c.ef {
			for i, x := range w {
				seg[i] = x - r[i] + seg[i]
			}
		} else {
			for i, x := range w {
				seg[i] = x - r[i]
			}
		}
	}
	var resid []float64
	if c.ef {
		resid = u
	}
	return packVec(&c.packed, s, u, compress.RNGFor(s, c.seed, round, slot), nil, resid)
}

// encodeDelta encodes a δ map directly (no reference, no error feedback:
// rows are regularization targets, not accumulated state). The RNG salt is
// offset from the update encode's so the two streams of one round differ.
func (c *clientCodec) encodeDelta(s compress.Scheme, round, slot int, delta []float64) PackedVec {
	return packVec(&c.packedD, s, delta, compress.RNGFor(s, c.seed, round, slot+1<<16), nil, nil)
}

// sameVector reports whether a and b are one slice, not equal copies.
func sameVector(a, b []float64) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// clientRoundSeed seeds the client's mini-batch stream for one round from
// (Seed, round) — the client-side half of the resume-determinism contract
// (same mixing constants as fl.roundRNG and the server's cohortRNG).
func clientRoundSeed(seed int64, round int32) int64 {
	return seed*1_000_003 + int64(round)*7919 + 1
}
