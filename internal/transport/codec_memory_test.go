package transport

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/compress"
	"repro/internal/nn"
)

// Structural pins on what the compressed path retains: the lossy codec may
// keep a model-sized buffer only where the arithmetic needs one.

// modelSized walks everything reachable from v and returns the distinct
// backing arrays of float64 and byte slices that could hold an n-parameter
// model (cap ≥ n) — two slices over one array count once.
func modelSized(v reflect.Value, n int) (floats, bytes map[unsafe.Pointer]bool) {
	floats, bytes = map[unsafe.Pointer]bool{}, map[unsafe.Pointer]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Ptr:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			switch v.Type().Elem().Kind() {
			case reflect.Float64:
				if v.Cap() >= n {
					floats[v.UnsafePointer()] = true
				}
			case reflect.Uint8:
				if v.Cap() >= n {
					bytes[v.UnsafePointer()] = true
				}
			default:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			}
		}
	}
	walk(v)
	return floats, bytes
}

var f32q8 = CodecPolicy{Broadcast: compress.SchemeF32, Update: compress.SchemeInt8, Delta: compress.SchemeInt8}

// A cross-device session samples a different cohort every round. The codec's
// model-sized memory must follow the cohort — one staging buffer per member,
// one shared broadcast payload and its decode — not the slots ever sampled,
// and no slot may keep a model-sized buffer of its own.
func TestCodecMemoryIsCohortBound(t *testing.T) {
	const slots, cohort, rounds = 1024, 64, 20
	base := newFixture(t, 4)
	fx := *base
	fx.builder = nn.NewMLP(base.shards[0].Features(), 8, 4, base.shards[0].Classes)
	fx.ccfg.Builder, fx.ccfg.LocalSteps, fx.ccfg.BatchSize = fx.builder, 1, 4
	fx.shards = nil
	for i := 0; i < slots; i++ {
		fx.shards = append(fx.shards, base.shards[i%len(base.shards)]) // shards are only read
	}
	nParams := fx.builder(fx.ccfg.ModelSeed).NumParams()

	sess := new(session)
	res := elideRun{algo: AlgoRFedAvgPlus, sess: sess, shape: func(c *ServerConfig) {
		c.Codec, c.SampleRatio, c.Rounds = f32q8, float64(cohort)/slots, rounds
	}}.run(t, &fx)
	if len(res.Evictions) != 0 || len(res.RoundLosses) != rounds {
		t.Fatalf("%d rounds, evictions %+v", len(res.RoundLosses), res.Evictions)
	}
	sampled := map[int]bool{}
	for _, c := range res.Cohorts {
		for i, in := range c.Mask {
			if in {
				sampled[i] = true
			}
		}
	}
	if len(sampled) < 8*cohort {
		t.Fatalf("only %d distinct slots sampled: the test would not see per-slot retention", len(sampled))
	}
	if got := sess.codec.allocated(); got != slots {
		t.Fatalf("allocated() = %d, want one negotiated slot per join (%d)", got, slots)
	}
	floats, bytes := modelSized(reflect.ValueOf(&sess.codec), nParams)
	if got := len(floats) + len(bytes); got == 0 || got > cohort+2 {
		t.Fatalf("%d model-sized buffers reachable from the session codec (%d float, %d byte), want 1..%d",
			got, len(floats), len(bytes), cohort+2)
	}
	if len(sess.codec.stage) != cohort {
		t.Fatalf("%d staging buffers for a cohort of %d", len(sess.codec.stage), cohort)
	}
	for i, sl := range sess.codec.slots {
		if f, b := modelSized(reflect.ValueOf(sl), nParams); len(f)+len(b) != 0 {
			t.Fatalf("slot %d carries %d model-sized buffers", i, len(f)+len(b))
		}
	}
}

// What a client of a lossy uplink keeps between rounds: the reference the
// update is difference-coded against, the carry it is quantized in, and the
// packed bytes. The reference is the slice the network was loaded from — the
// decoded downlink, or the dense frame itself — also when the assign that
// started the round carried no model.
func TestClientCodecBuffers(t *testing.T) {
	for _, gone := range []string{"recon", "assigned", "upd", "residual"} {
		if _, ok := reflect.TypeOf(clientCodec{}).FieldByName(gone); ok {
			t.Errorf("clientCodec still has a %q buffer", gone)
		}
	}
	fx := newFixture(t, 4)
	nParams := fx.builder(fx.ccfg.ModelSeed).NumParams()
	run := func(policy CodecPolicy) []*clientCodec {
		codecs := make([]*clientCodec, len(fx.shards))
		for i := range codecs {
			codecs[i] = new(clientCodec)
		}
		var log frameLog
		elideRun{algo: AlgoRFedAvgPlus, codecs: codecs, server: log.wrap,
			shape:  func(c *ServerConfig) { c.Codec = policy },
			client: func(_ int, cfg *ClientConfig) { cfg.ErrorFeedback = true },
		}.run(t, fx)
		// Rounds 1.. started from elided assigns: the held model was the reference.
		for _, f := range log.assigns(5) {
			if f.hasModel {
				t.Fatalf("round-5 assign to slot %d carries a model: the session never elided", f.slot)
			}
		}
		return codecs
	}
	for i, cc := range run(f32q8) {
		floats, _ := modelSized(reflect.ValueOf(cc), nParams)
		if len(floats) > 2 {
			t.Errorf("f32/q8 client %d retains %d model-sized float buffers, want ≤ 2 (reference, carry)", i, len(floats))
		}
		if len(cc.carry) != nParams || len(cc.ref) != nParams || &cc.ref[0] != &cc.params[0] {
			t.Errorf("f32/q8 client %d: the reference is not the decoded downlink itself", i)
		}
	}
	for i, cc := range run(CodecPolicy{Update: compress.SchemeInt8, Delta: compress.SchemeInt8}) {
		floats, _ := modelSized(reflect.ValueOf(cc), nParams)
		if cc.params != nil || len(cc.ref) != nParams || len(floats) > 2 {
			t.Errorf("dense/q8 client %d retains %d model-sized float buffers (decode buffer %v), want the carry and the retained frame",
				i, len(floats), cc.params != nil)
		}
	}
	// A dense/dense client retains nothing model-sized: the held frame is
	// kept only while a packed update may be coded against it.
	for i, cc := range run(CodecPolicy{}) {
		if floats, bytes := modelSized(reflect.ValueOf(cc), nParams); len(floats)+len(bytes) != 0 {
			t.Errorf("dense client %d retains %d model-sized buffers", i, len(floats)+len(bytes))
		}
	}
}

// sharedConn records, per server→client model frame, whether it went dense and
// which array its packed bytes live in.
type sharedConn struct {
	Conn
	dense  *int
	packed map[unsafe.Pointer]int
}

func (c *sharedConn) Send(m *Message) error {
	if m.Type == MsgAssign || m.Type == MsgDeltaReq {
		if len(m.Params) > 0 {
			*c.dense++
		}
		if m.PParams.N > 0 {
			c.packed[unsafe.Pointer(unsafe.SliceData(m.PParams.Data))]++
		}
	}
	return c.Conn.Send(m)
}

// One dense-only client beside three that accept the f32 broadcast: it gets
// the exact model, the others all get the session's one encode of it — the
// same array, not three equal ones. (The run's losses and final model are
// pinned in golden_sessions.json, recorded with per-slot encodes.)
func TestMixedCapsShareOneBroadcastEncode(t *testing.T) {
	fx := newFixture(t, 4)
	r := goldenRuns["mixed-caps"]
	var dense [4]int
	var packed [4]map[unsafe.Pointer]int
	r.server = func(i int, c Conn) Conn {
		packed[i] = map[unsafe.Pointer]int{}
		return &sharedConn{Conn: c, dense: &dense[i], packed: packed[i]}
	}
	r.run(t, fx)
	if dense[0] == 0 || len(packed[0]) != 0 {
		t.Fatalf("dense-only client got %d dense and %d packed models", dense[0], len(packed[0]))
	}
	for i := 1; i < 4; i++ {
		if dense[i] != 0 || len(packed[i]) != 1 {
			t.Fatalf("client %d got %d dense models and packed models from %d arrays, want the one shared payload", i, dense[i], len(packed[i]))
		}
		for p := range packed[i] {
			if packed[1][p] == 0 {
				t.Fatalf("client %d's payload is not the array client 1 was sent", i)
			}
		}
	}
}

// A client keeps no workspace between frames: its gradients and its arena,
// round RNG included, are borrowed for each local training or δ pass and given
// back before it replies. So in a pipe session whose cohort is smaller than
// its slot count, at each round boundary — before the round's first assign
// leaves — no client's network holds gradient storage, and the arena free
// list holds no more arenas than ever worked at once: at most the cohort.
func TestClientWorkspaceBorrowedOnlyWhileWorking(t *testing.T) {
	const clients, cohort, rounds = 8, 2, 6
	fx := newFixture(t, clients)
	for nn.FreeArenas() > 0 {
		nn.GetArena()
	}

	var mu sync.Mutex
	var nets []*nn.Network
	checked := 0 // rounds checked at their boundary
	idle := func(when string) {
		for i, n := range nets {
			for _, p := range n.Params() {
				if len(p.G.Data) != 0 {
					t.Errorf("%s: network %d holds %d gradient values in %s", when, i, len(p.G.Data), p.Name)
				}
			}
		}
		if a := nn.FreeArenas(); a < 1 || a > cohort {
			t.Errorf("%s: the free list holds %d arenas, want 1..%d", when, a, cohort)
		}
	}
	res := elideRun{algo: AlgoRFedAvgPlus,
		shape: func(c *ServerConfig) { c.SampleRatio, c.Rounds = float64(cohort)/clients, rounds },
		client: func(_ int, cfg *ClientConfig) {
			cfg.Builder = func(seed int64) *nn.Network {
				n := fx.builder(seed)
				mu.Lock()
				nets = append(nets, n)
				mu.Unlock()
				return n
			}
		},
		server: func(_ int, c Conn) Conn {
			return &hookConn{Conn: c, before: func(m *Message) {
				mu.Lock()
				defer mu.Unlock()
				if m.Type == MsgAssign && int(m.Round) > checked {
					checked = int(m.Round)
					idle(fmt.Sprintf("round %d boundary", m.Round))
				}
			}}
		},
	}.run(t, fx)
	if len(res.RoundLosses) != rounds || len(res.Evictions) != 0 {
		t.Fatalf("%d rounds, evictions %+v", len(res.RoundLosses), res.Evictions)
	}
	for r, c := range res.Cohorts {
		if n := count(c.Mask); n != cohort {
			t.Fatalf("round %d sampled %d slots, want %d of %d", r, n, cohort, clients)
		}
	}
	if checked != rounds-1 || len(nets) != clients {
		t.Fatalf("checked %d boundaries over %d networks, want %d over %d", checked, len(nets), rounds-1, clients)
	}
	idle("after the session")
}
