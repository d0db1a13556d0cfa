package transport

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/fl"
)

// ServePipes runs a whole session in one process over the real protocol: one
// Pipe per shard, RunClient on each client end — wrapped in a FaultConn when
// plans names the slot — with client(i) as slot i's configuration, and Serve
// on the server ends. It is how the in-repo experiments measure the wire
// features (negotiated codec, error feedback, Byzantine FaultPlans).
//
// When Serve fails every pipe is closed, so no client stays blocked in Recv,
// and Serve's error is returned. Otherwise the result comes back with the
// clients' errors joined: nil unless a client failed, as an evicted one does.
// Either way every pipe is closed once the clients are done, which ends the
// server's receive pumps.
func ServePipes(scfg ServerConfig, shards []*data.Dataset, client func(i int) ClientConfig, plans map[int]FaultPlan) (*ServerResult, error) {
	server := make([]Conn, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		var c Conn
		server[i], c = Pipe()
		if plan, ok := plans[i]; ok {
			c = NewFaultConn(c, plan)
		}
		cfg := client(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunClient(c, shard, cfg); err != nil {
				errs[i] = fmt.Errorf("client %d: %w", i, err)
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
// model, local solver, sampling, buffer, seed, health monitor, ledger, events
// and tracer — as a session of algo over ServePipes. codec is negotiated for
// the model updates and δ maps, ef gives every client its own error-feedback
// residual, and client k's RNG is seeded Seed·1000 + k. It is the one mapping
// from a simulator configuration to the wire, for flsim's codec flags, the
// extwire experiment and the efficient-uplink example.
func ServeFederation(f *fl.Federation, algo Algorithm, rounds int, lambda float64, codec CodecPolicy, ef bool) (*ServerResult, error) {
	cfg := f.Cfg
	shards := make([]*data.Dataset, len(f.Clients))
	for i, c := range f.Clients {
		shards[i] = c.Data
	}
	scfg := ServerConfig{
		Algorithm: algo, Rounds: rounds, InitialParams: f.InitialParams(), FeatureDim: f.FeatureDim(),
		SampleRatio: cfg.SampleRatio, Seed: cfg.Seed, Codec: codec,
		BufferK: cfg.BufferK, StalenessLambda: cfg.StalenessLambda,
		Events: cfg.Events, Tracer: cfg.Tracer, Ledger: cfg.Ledger, Health: cfg.Health, LedgerDetailN: cfg.LedgerDetailN,
	}
	client := func(i int) ClientConfig {
		return ClientConfig{
			Builder: cfg.Builder, ModelSeed: cfg.ModelSeed, Seed: cfg.Seed*1000 + int64(i),
			LocalSteps: cfg.LocalSteps, BatchSize: cfg.BatchSize, LR: cfg.LR, NewOptimizer: cfg.NewOptimizer,
			Lambda: lambda, ErrorFeedback: ef,
		}
	}
	return ServePipes(scfg, shards, client, nil)
}
