package server

// The streaming upload path of the corpus subsystem. A corpus PUT body is
// never slurped: it flows through the one streaming fold (searchlog.Fold
// via internal/ingest), so the
// server's memory during an upload is bounded by the aggregated histogram,
// not the body size — a multi-hundred-MB AOL-scale corpus uploads under a
// small resident footprint. What must still be guarded is concurrency:
// many simultaneous uploads each hold a histogram, so an admission gate
// caps the total declared bytes in flight and sheds the excess with 503
// (clients retry; memory does not).

import (
	"sync"
)

// ingestGate admission-controls corpus uploads by declared body size. It
// deliberately does not block: an over-capacity upload is refused
// immediately (503 + Retry-After) rather than parked holding a connection.
type ingestGate struct {
	mu       sync.Mutex
	capacity int64 // ≤ 0 disables the guard
	inFlight int64
	uploads  int
}

func newIngestGate(capacity int64) *ingestGate {
	return &ingestGate{capacity: capacity}
}

// tryAcquire reserves n bytes of ingest capacity. A single upload larger
// than the whole capacity is admitted only when the gate is idle —
// otherwise nothing that big could ever load.
func (g *ingestGate) tryAcquire(n int64) bool {
	if g.capacity <= 0 {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inFlight > 0 && g.inFlight+n > g.capacity {
		return false
	}
	g.inFlight += n
	g.uploads++
	return true
}

func (g *ingestGate) release(n int64) {
	if g.capacity <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inFlight -= n
	g.uploads--
}

// Stats reports the bytes and uploads currently in flight.
func (g *ingestGate) Stats() (inFlight int64, uploads int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inFlight, g.uploads
}
