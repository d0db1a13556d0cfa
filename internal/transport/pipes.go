package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/fl"
)

// ServePipes runs a whole session in one process over the real protocol, in
// virtual time: one virtual pipe per shard (newPipe), RunClient on each client
// end — wrapped in a FaultConn when plans names the slot — with client(i) as
// slot i's configuration, and Serve on the server ends. Every frame carries a
// stamp (Message.at): the server's is the session clock, a client's the stamp
// it last received plus its FaultConn delays. The server handles arrivals in
// stamp order and a phase deadline fires at its stamp (session.dispatch), so
// a session replays bit for bit and a slow client costs no wall-clock time.
//
// Rejoiners are an input: the conns queued on scfg.Rejoin, which the caller
// closes, wait as pending from before the join. Each is the server end of a
// virtual pipe on scfg.clock whose client the caller runs, and its handshake's
// stamp (0 plus its FaultConn delays) is its dial time: the session waits for
// every handshake and handles it in stamp order, so a silent rejoiner, which
// only a live Serve takes, would stall it.
//
// When Serve fails every pipe is closed, so no client stays blocked in Recv,
// and Serve's error is returned. Otherwise the result comes back with the
// clients' errors joined: nil unless a client failed, as an evicted one does.
// A client that fails closes its pipe, and every pipe is closed once the
// clients are done, which ends the server's receive pumps. Rejoiners' pipes
// are the caller's to close.
func ServePipes(scfg ServerConfig, shards []*data.Dataset, client func(i int) ClientConfig, plans map[int]FaultPlan) (*ServerResult, error) {
	if scfg.clock == nil {
		scfg.clock = new(time.Duration)
	}
	server := make([]Conn, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		var c Conn
		server[i], c = newPipe(scfg.clock)
		if plan, ok := plans[i]; ok {
			c = NewFaultConn(c, plan)
		}
		cfg := client(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunClient(c, shard, cfg); err != nil {
				errs[i] = fmt.Errorf("client %d: %w", i, err)
				c.Close() // the server sees it fail at its last frame's stamp
			}
		}()
	}
	closeAll := func() {
		for _, c := range server {
			c.Close()
		}
	}
	res, err := Serve(scfg, server)
	if err != nil {
		closeAll()
	}
	wg.Wait()
	closeAll()
	if err != nil {
		return nil, err
	}
	return res, errors.Join(errs...)
}

// ServeFederation runs f — the simulator's federation: its clients' shards,
// model, local solver, sampling, seed, health monitor, ledger, events and
// tracer — as a ServePipes session. cfg names the algorithm, the rounds, the
// codec, the buffer (BufferK, StalenessLambda) and the deadlines;
// ServeFederation fills in the rest from f. lambda is the clients'
// regularization weight, ef gives every client its own error-feedback
// residual, and client k's RNG is seeded Seed·1000 + k. It is the one mapping
// from a simulator configuration to the wire, for flsim's wire flags, the
// extwire experiment and the efficient-uplink example, which set no deadline.
//
// In a buffered session (cfg.BufferK > 0) slot k's every send and receive
// takes a virtual U(0.5, 1.5]·slow[k] seconds (slow[k] is 1 when missing),
// drawn from the seed Seed·1000 + k: that is who makes a round's buffer and
// who folds late.
func ServeFederation(f *fl.Federation, cfg ServerConfig, lambda float64, ef bool, slow []float64) (*ServerResult, error) {
	fc := f.Cfg
	shards := make([]*data.Dataset, len(f.Clients))
	for i, c := range f.Clients {
		shards[i] = c.Data
	}
	cfg.InitialParams, cfg.FeatureDim, cfg.SampleRatio, cfg.Seed = f.InitialParams(), f.FeatureDim(), fc.SampleRatio, fc.Seed
	cfg.Events, cfg.Tracer, cfg.Ledger, cfg.Health, cfg.LedgerDetailN = fc.Events, fc.Tracer, fc.Ledger, fc.Health, fc.LedgerDetailN
	client := func(i int) ClientConfig {
		return ClientConfig{
			Builder: fc.Builder, ModelSeed: fc.ModelSeed, Seed: fc.Seed*1000 + int64(i),
			LocalSteps: fc.LocalSteps, BatchSize: fc.BatchSize, LR: fc.LR, NewOptimizer: fc.NewOptimizer,
			Lambda: lambda, ErrorFeedback: ef,
		}
	}
	var plans map[int]FaultPlan
	if cfg.BufferK > 0 {
		plans = make(map[int]FaultPlan, len(shards))
		for k := range shards {
			s := float64(time.Second)
			if k < len(slow) {
				s *= slow[k]
			}
			plans[k] = FaultPlan{Seed: fc.Seed*1000 + int64(k), DelayProb: 1, MinDelay: time.Duration(0.5 * s), MaxDelay: time.Duration(1.5 * s)}
		}
	}
	return ServePipes(cfg, shards, client, plans)
}
