package runtime

import (
	"sync"

	"bdps/internal/metrics"
	"bdps/internal/vtime"
)

// Sink receives the counts and deliveries a live node records, as a tap
// beside the node's own ledger (livenet.NodeConfig.Sink).
// *metrics.Collector implements it, safe for concurrent writers.
type Sink interface {
	// Count adds n to one ledger counter (metrics.Counters lists them).
	Count(id metrics.Counter, n int)
	// DeliveredAt records one delivery with the message's publication
	// instant, feeding the delivery-rate timeline; published < 0 skips
	// the timeline.
	DeliveredAt(subID int32, price float64, published, latency vtime.Millis, valid bool)
}

// LockedSink serializes a Sink that is not safe for concurrent use. The
// backends need none: the simulator feeds the plan's collector and each
// live node a collector of its own, and a collector takes no lock.
type LockedSink struct {
	mu sync.Mutex
	s  Sink
}

// Locked wraps s in a mutex.
func Locked(s Sink) *LockedSink { return &LockedSink{s: s} }

func (l *LockedSink) Count(id metrics.Counter, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.Count(id, n)
}

func (l *LockedSink) DeliveredAt(subID int32, price float64, published, latency vtime.Millis, valid bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.DeliveredAt(subID, price, published, latency, valid)
}
