package stats

import (
	"math"
	"sync/atomic"
)

// Histogram bins non-negative samples (latencies in ms) on a fixed
// log-linear grid: 32 equal sub-buckets in each octave from 2⁻¹⁰ up to
// 2²², 1024 atomic bins in all (8 KB, allocated by the first sample).
// Concurrent writers add without a lock; Merge adds one histogram into
// another bin for bin. Count, Sum, Min and Max are exact. A quantile is
// its bin's midpoint clamped to [Min, Max], so it lies within 1/64
// (1.6%) of the sample of that rank when the sample is in [2⁻¹⁰, 2²²);
// smaller samples share the first bin, larger ones the last.
type Histogram struct {
	bins atomic.Pointer[[histBins]atomic.Int64]
	sum  AtomicFloat
	// max holds the largest sample's bits and min the complement of the
	// smallest's: both grow as unsigned integers, since the bit patterns
	// of non-negative floats order as their values do.
	max, min atomic.Uint64
}

const (
	histSub  = 32 // sub-buckets per octave; a power of two
	histLow  = -10
	histBins = 32 * histSub
	// histShift keeps a float's exponent and its top log2(histSub)
	// mantissa bits: one bin index per sub-bucket.
	histShift = 52 - 5
)

// Add records one sample; a negative one (or NaN) is recorded as 0.
func (h *Histogram) Add(x float64) {
	if !(x > 0) {
		x = 0
	}
	h.own()[histBin(x)].Add(1)
	h.sum.Add(x)
	storeMax(&h.max, math.Float64bits(x))
	storeMax(&h.min, ^math.Float64bits(x))
}

// own returns the bins, allocating them on first use.
func (h *Histogram) own() *[histBins]atomic.Int64 {
	if bins := h.bins.Load(); bins != nil {
		return bins
	}
	h.bins.CompareAndSwap(nil, new([histBins]atomic.Int64))
	return h.bins.Load()
}

func histBin(x float64) int {
	if x < 0x1p-10 {
		return 0
	}
	return min(int(math.Float64bits(x)>>histShift)-(1023+histLow)*histSub, histBins-1)
}

// binMid is the midpoint of bin i.
func binMid(i int) float64 {
	octave := math.Ldexp(1, i/histSub+histLow)
	return octave * (1 + (float64(i%histSub)+0.5)/histSub)
}

func storeMax(a *atomic.Uint64, v uint64) {
	for old := a.Load(); v > old && !a.CompareAndSwap(old, v); old = a.Load() {
	}
}

// Merge adds every sample of o into h.
func (h *Histogram) Merge(o *Histogram) {
	ob := o.bins.Load()
	if ob == nil {
		return
	}
	bins := h.own()
	for i := range ob {
		bins[i].Add(ob[i].Load())
	}
	h.sum.Add(o.sum.Load())
	storeMax(&h.max, o.max.Load())
	storeMax(&h.min, o.min.Load())
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	var n int64
	if bins := h.bins.Load(); bins != nil {
		for i := range bins {
			n += bins[i].Load()
		}
	}
	return n
}

// Sum returns the sum of the samples.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Min returns the smallest sample, or NaN if empty (the complement of
// min's zero value is a NaN).
func (h *Histogram) Min() float64 { return math.Float64frombits(^h.min.Load()) }

// Max returns the largest sample, or NaN if empty.
func (h *Histogram) Max() float64 {
	if h.bins.Load() == nil {
		return math.NaN()
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile returns the p-quantile (0 <= p <= 1): the estimate of the
// sample of rank round(p·(n−1)), or NaN if empty.
func (h *Histogram) Quantile(p float64) float64 {
	n := h.Count()
	if n == 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	rank := int64(p*float64(n-1) + 0.5)
	bins := h.bins.Load()
	for i := range bins {
		if rank -= bins[i].Load(); rank < 0 {
			return min(max(binMid(i), h.Min()), h.Max())
		}
	}
	return h.Max()
}

// AtomicFloat is a float64 that concurrent writers add to without a lock.
type AtomicFloat struct{ bits atomic.Uint64 }

// Add adds x.
func (f *AtomicFloat) Add(x float64) {
	for old := f.bits.Load(); !f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)); old = f.bits.Load() {
	}
}

// Load returns the current value.
func (f *AtomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }
