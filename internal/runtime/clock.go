package runtime

import (
	"sync/atomic"
	"time"

	"bdps/internal/vtime"
)

// Clock is the one time base every runtime component reads. The
// simulator's engine implements it with virtual time; wall-clock
// backends use a WallClock. Scheduling logic (queue viability, delivery
// validity, deadline math) never touches time.Now directly, so tests can
// substitute any clock.
type Clock interface {
	Now() vtime.Millis
}

// Scale is how many wall milliseconds one emulated millisecond lasts:
// the one place emulated time and wall time convert. A Scale ≤ 0 means 1
// (real time).
type Scale float64

// Wall returns the wall duration m emulated ms last, saturating at the
// Duration range (vtime.Inf waits forever).
func (s Scale) Wall(m vtime.Millis) time.Duration { return vtime.ToDuration(m * s.factor()) }

// Emulated returns the emulated ms a wall duration d stands for.
func (s Scale) Emulated(d time.Duration) vtime.Millis { return vtime.FromDuration(d) / s.factor() }

func (s Scale) factor() float64 {
	if s <= 0 {
		return 1
	}
	return float64(s)
}

// WallClock maps wall time onto emulated milliseconds: elapsed wall time
// since the epoch, divided by the time-compression scale. With Scale s,
// one emulated millisecond passes every s wall milliseconds, so emulated
// latencies computed against a WallClock are directly comparable to the
// simulator's virtual latencies at any compression. Its waits
// (AfterFunc, NewTicker, SleepUntil) take emulated milliseconds on the
// same scale.
//
// The zero epoch means the Unix epoch, which at Scale 1 makes Now the
// plain wall clock in milliseconds — the time base multi-process live
// deployments (one process per broker, real time) share without
// coordination. Anchored clocks (NewWallClock) are for in-process
// deployments where all participants hold the same *WallClock.
type WallClock struct {
	scale Scale
	// epoch is the anchor in Unix nanoseconds; 0 means the Unix epoch.
	// Atomic so Restart can re-anchor while node goroutines read.
	epoch atomic.Int64
}

// NewWallClock returns a wall clock anchored now, compressing emulated
// time by scale (≤ 0 means 1).
func NewWallClock(scale float64) *WallClock {
	c := &WallClock{scale: Scale(scale)}
	c.Restart()
	return c
}

// AbsoluteWallClock returns a wall clock anchored at the Unix epoch —
// the shared time base of multi-process live deployments.
func AbsoluteWallClock(scale float64) *WallClock {
	return &WallClock{scale: Scale(scale)}
}

// Restart re-anchors the clock at the current instant. Deployments call
// it when injection starts, so emulated time 0 is the first publication
// opportunity rather than process start.
func (c *WallClock) Restart() { c.epoch.Store(time.Now().UnixNano()) }

// Now returns the emulated time.
func (c *WallClock) Now() vtime.Millis {
	if e := c.epoch.Load(); e != 0 {
		return c.scale.Emulated(time.Duration(time.Now().UnixNano() - e))
	}
	return float64(time.Now().UnixMicro()) / 1000 / c.scale.factor()
}

// Scale returns the clock's compression (≤ 0 reads as 1).
func (c *WallClock) Scale() Scale { return Scale(c.scale.factor()) }

// AfterFunc runs f in its own goroutine once m emulated ms have passed.
func (c *WallClock) AfterFunc(m vtime.Millis, f func()) *time.Timer {
	return time.AfterFunc(c.scale.Wall(m), f)
}

// NewTicker ticks every period emulated ms.
func (c *WallClock) NewTicker(period vtime.Millis) *time.Ticker {
	return time.NewTicker(c.scale.Wall(period))
}

// SleepUntil blocks until the clock reads t and reports true, or until
// stop closes first and reports false (a nil stop never closes).
func (c *WallClock) SleepUntil(t vtime.Millis, stop <-chan struct{}) bool {
	wait := t - c.Now()
	if wait <= 0 {
		return true
	}
	select {
	case <-time.After(c.scale.Wall(wait)):
		return true
	case <-stop:
		return false
	}
}
