package tier

import (
	"context"
	"time"
)

// noteFailure counts one consecutive failure and ejects the replica at
// the threshold.
func (rt *Router) noteFailure(rep *replica) {
	if int(rep.fails.Add(1)) >= rt.cfg.FailThreshold &&
		rep.state.CompareAndSwap(int32(stateHealthy), int32(stateEjected)) {
		rt.ejects.Inc()
	}
}

// probeLoop is the background health prober: every tick it probes the
// fleet once (probeAll).
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	backoff := make(map[string]int) // consecutive failed re-probes, per ejected replica
	skip := make(map[string]int)    // prober ticks left before the next re-probe
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.done:
			return
		case <-tick.C:
		}
		rt.probeAll(backoff, skip)
	}
}

// probeAll is one prober tick: it refreshes routable replicas' readiness,
// ejects on consecutive probe failures, and re-probes ejected replicas
// with exponential backoff, readmitting one once it answers ready. backoff
// and skip carry the re-probe schedule from tick to tick.
func (rt *Router) probeAll(backoff, skip map[string]int) {
	for _, name := range rt.order {
		rep := rt.reps[name]
		ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeInterval)
		switch rep.getState() {
		case stateEjected:
			if skip[name] > 0 {
				skip[name]--
				break
			}
			if err := rep.probe(ctx, rt.client); err != nil || !rep.ready.Load() {
				backoff[name]++
				n := backoff[name]
				if n > 5 {
					n = 5 // cap the re-probe gap at 32 ticks
				}
				skip[name] = 1<<n - 1
				break
			}
			delete(backoff, name)
			delete(skip, name)
			rep.fails.Store(0)
			rep.setState(stateHealthy)
			rt.readmits.Inc()
		case stateHealthy:
			if err := rep.probe(ctx, rt.client); err != nil {
				rt.noteFailure(rep)
				break
			}
			rep.fails.Store(0)
			rt.adoptBackend(rep)
		}
		cancel()
	}
}

// adoptBackend names the store's backend after the first replica that
// reports one, when the config left it open, and rolls the store: what it
// held was computed before the fleet's backend was known. Only the prober
// goroutine writes, so a plain store is race-free.
func (rt *Router) adoptBackend(rep *replica) {
	if *rt.backend.Load() != "" {
		return
	}
	if b := *rep.backend.Load(); b != "" {
		rt.backend.Store(&b)
		rt.store.Roll()
	}
}
