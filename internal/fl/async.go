package fl

import (
	"math/rand"
	"sort"
)

// deferredOut is one client's finished-but-unaggregated round output,
// parked until the next round folds it in with a staleness discount.
type deferredOut struct {
	out   ClientOut
	round int // round the output trained for
}

// asyncLatency is the seeded per-(round, client) latency model of the
// buffered-aggregation simulation: a uniform draw in [0.5, 1.5) scaled by
// the client's SlowFactor. The RNG mixing constants differ from roundRNG's
// so the latency stream never perturbs batch sampling, keeping an async
// run's local training bitwise-identical to a sync run's.
func (f *Federation) asyncLatency(round, client int) float64 {
	seed := f.Cfg.Seed*1_000_003 + int64(round)*7919 + int64(client+1)*15485863
	lat := 0.5 + rand.New(rand.NewSource(seed)).Float64()
	if client < len(f.Cfg.SlowFactor) && f.Cfg.SlowFactor[client] > 0 {
		lat *= f.Cfg.SlowFactor[client]
	}
	return lat
}

// applyAsync closes a buffered round as the transport server does, with the
// latency model deciding who arrived: given a round's fresh client outputs, it
// keeps the BufferK fastest, parks the stragglers for a later
// round, and folds every previously parked output back in. It returns the
// aggregation set (fresh outputs in sampled order, then folds in client
// order) with per-entry staleness ages aligned to it; ages is nil when
// nothing was deferred or folded (the sync-identical fast path). With
// Config.Async off it returns (outs, nil) unchanged.
func (f *Federation) applyAsync(round int, outs []ClientOut) ([]ClientOut, []int) {
	if !f.Cfg.Async {
		return outs, nil
	}
	if f.deferred == nil {
		f.deferred = make(map[int]*deferredOut, len(f.Clients))
	}
	k := f.Cfg.BufferK
	fresh := outs
	if k >= 1 && k < len(outs) {
		// Rank this round's cohort by simulated arrival; defer the rest.
		order := make([]int, len(outs))
		for i := range order {
			order[i] = i
		}
		lat := make([]float64, len(outs))
		for i, o := range outs {
			lat[i] = f.asyncLatency(round, o.Client.ID)
		}
		sort.SliceStable(order, func(a, b int) bool { return lat[order[a]] < lat[order[b]] })
		keep := make(map[int]bool, k)
		for _, i := range order[:k] {
			keep[i] = true
		}
		fresh = make([]ClientOut, 0, k)
		for i, o := range outs {
			if keep[i] {
				fresh = append(fresh, o)
			} else {
				f.deferred[o.Client.ID] = &deferredOut{out: o, round: round}
			}
		}
	}
	// Fold everything parked in an earlier round, oldest slots first so the
	// aggregation order is deterministic under map iteration.
	var foldIDs []int
	for id, d := range f.deferred {
		if d.round < round {
			foldIDs = append(foldIDs, id)
		}
	}
	if len(foldIDs) == 0 && len(fresh) == len(outs) {
		return fresh, nil
	}
	sort.Ints(foldIDs)
	agg := make([]ClientOut, 0, len(fresh)+len(foldIDs))
	ages := make([]int, 0, len(fresh)+len(foldIDs))
	for _, o := range fresh {
		agg = append(agg, o)
		ages = append(ages, 0)
	}
	for _, id := range foldIDs {
		d := f.deferred[id]
		agg = append(agg, d.out)
		ages = append(ages, round-d.round)
		delete(f.deferred, id)
	}
	return agg, ages
}

// AsyncDeferred reports how many client outputs are currently parked.
func (f *Federation) AsyncDeferred() int { return len(f.deferred) }

// filterAsyncBusy removes clients with a parked output from a sampled
// cohort: like the transport server's busy mask, a client still "in
// flight" is not re-assigned until its previous update has been folded.
func (f *Federation) filterAsyncBusy(sampled []int) []int {
	if len(f.deferred) == 0 {
		return sampled
	}
	kept := sampled[:0]
	for _, ci := range sampled {
		if _, busy := f.deferred[f.Clients[ci].ID]; !busy {
			kept = append(kept, ci)
		}
	}
	return kept
}

// FreshIDs returns the client indices of the age-0 entries of an
// aggregation set — the clients a second synchronization (rFedAvg+'s δ
// recomputation) can still reach this round. With nil ages every entry is
// fresh.
func FreshIDs(agg []ClientOut, ages []int) []int {
	ids := make([]int, 0, len(agg))
	for i, o := range agg {
		if ages == nil || ages[i] == 0 {
			ids = append(ids, o.Client.ID)
		}
	}
	return ids
}
