package runtime

import (
	"sync"

	"bdps/internal/metrics"
	"bdps/internal/vtime"
)

// Sink receives the delivery-side metric events a deployment produces
// while running. *metrics.Collector implements it; publication-side
// accounting (PublishedAt, PublishedToAt) stays with the Run driver,
// which performs it once before injection on every backend.
type Sink interface {
	// Count adds n to one ledger counter (metrics.Counters lists them).
	Count(id metrics.Counter, n int)
	// DeliveredAt records one delivery with the message's publication
	// instant, feeding the delivery-rate timeline; published < 0 skips
	// the timeline.
	DeliveredAt(subID int32, price float64, published, latency vtime.Millis, valid bool)
	// Detection records one confirmed failure detection and its latency.
	Detection(latency vtime.Millis)
}

// LockedSink serializes a Sink for concurrent backends. The simulator
// feeds its collector directly (single-threaded by construction); the
// live overlay wraps the same collector in a LockedSink shared by every
// node goroutine.
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

func (l *LockedSink) Detection(latency vtime.Millis) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s.Detection(latency)
}
