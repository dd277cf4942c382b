package tenant

import "fmt"

// checkConsistency audits the source between events: flow is conserved —
// every offered arrival was admitted or dropped, every admitted request was
// served or is queued, per tenant and in the scheduler's totals — no queue
// holds more than QueueDepth, the DRR active list holds exactly the tenants
// with a non-empty queue, each once, and a tenant off the list carries no
// deficit.
func (e *source) checkConsistency() error {
	s := e.sched
	var arrivals, drops, done int64
	queued := 0
	for t := range e.tenants {
		ts := &e.tenants[t]
		n := s.queuedAt(t)
		if ts.arrivals-ts.drops != ts.done+int64(n) {
			return fmt.Errorf("tenant: tenant %d: %d arrivals − %d dropped ≠ %d served + %d queued",
				t, ts.arrivals, ts.drops, ts.done, n)
		}
		arrivals += ts.arrivals
		drops += ts.drops
		done += ts.done
		queued += n
	}
	if arrivals != s.admitted+s.dropped || drops != s.dropped {
		return fmt.Errorf("tenant: arrivals ≠ admitted + dropped: %d ≠ %d + %d (tenants dropped %d)",
			arrivals, s.admitted, s.dropped, drops)
	}
	if s.admitted != s.served+int64(s.queued) || done != s.served || queued != s.queued {
		return fmt.Errorf("tenant: admitted ≠ served + queued: %d ≠ %d + %d (tenants served %d, queued %d)",
			s.admitted, s.served, s.queued, done, queued)
	}
	listed := make([]bool, len(e.tenants))
	for k := 0; k < s.actN; k++ {
		t := s.active[(s.actHead+k)%len(s.active)]
		if listed[t] {
			return fmt.Errorf("tenant: active list holds tenant %d twice", t)
		}
		listed[t] = true
	}
	for t := range e.tenants {
		n := s.queuedAt(t)
		if n > e.cfg.QueueDepth {
			return fmt.Errorf("tenant: tenant %d queues %d requests, deeper than QueueDepth %d", t, n, e.cfg.QueueDepth)
		}
		if listed[t] != (n > 0) || s.inActive[t] != listed[t] {
			return fmt.Errorf("tenant: active list disagrees with the queues at tenant %d: %d queued, listed %v, flagged %v",
				t, n, listed[t], s.inActive[t])
		}
		if !listed[t] && s.deficit[t] != 0 {
			return fmt.Errorf("tenant: idle tenant %d holds deficit %d", t, s.deficit[t])
		}
	}
	return nil
}
