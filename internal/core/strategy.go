package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Strategy selects which queued entry a broker sends next. Pick returns
// an index into entries, or -1 when entries is empty. Implementations
// must be deterministic: ties break toward the lower index (and FIFO
// toward the lower sequence number), so simulation runs are reproducible.
type Strategy interface {
	Name() string
	Pick(entries []*Entry, ctx Context) int
}

// MetricStrategy is implemented by strategies whose Pick maximizes a
// per-entry metric (EB, PC, EBPC). Metric exposes that metric through
// the cached fast path for diagnostics and for the equivalence suite,
// which asserts it bit-matches the naive reference; FIFO and RL rank by
// arrival order and remaining lifetime and are deliberately not
// MetricStrategies.
type MetricStrategy interface {
	Strategy
	Metric(e *Entry, ctx Context) float64
}

// FIFO sends in arrival order — the first traditional baseline of §6.
type FIFO struct{}

// Name implements Strategy.
func (FIFO) Name() string { return "FIFO" }

// Pick implements Strategy: minimum sequence number.
func (FIFO) Pick(entries []*Entry, _ Context) int {
	best := -1
	for i, e := range entries {
		if best < 0 || e.Seq < entries[best].Seq {
			best = i
		}
	}
	return best
}

// RL sends the message with the minimum (average) remaining lifetime
// first — the second traditional baseline of §6. With several interested
// subscribers the average of the per-subscription lifetimes is used
// (§6.1).
type RL struct{}

// Name implements Strategy.
func (RL) Name() string { return "RL" }

// Pick implements Strategy: minimum average remaining lifetime.
func (RL) Pick(entries []*Entry, ctx Context) int {
	best := -1
	var bestRL float64
	for i, e := range entries {
		rl := AvgRemainingLifetime(e, ctx.Now)
		if best < 0 || rl < bestRL {
			best, bestRL = i, rl
		}
	}
	return best
}

// MaxEB implements maximum expected benefit first (§5.1).
type MaxEB struct{}

// Name implements Strategy.
func (MaxEB) Name() string { return "EB" }

// Metric implements MetricStrategy.
func (MaxEB) Metric(e *Entry, ctx Context) float64 { return EB(e, ctx) }

// Pick implements Strategy: maximum EB.
func (MaxEB) Pick(entries []*Entry, ctx Context) int {
	return argmax{}.pick(entries, ctx)
}

// MaxPC implements maximum postponing cost first (§5.2).
type MaxPC struct{}

// Name implements Strategy.
func (MaxPC) Name() string { return "PC" }

// Metric implements MetricStrategy.
func (MaxPC) Metric(e *Entry, ctx Context) float64 { return PC(e, ctx) }

// Pick implements Strategy: maximum PC = EB − 1·EB′.
func (MaxPC) Pick(entries []*Entry, ctx Context) int {
	return argmax{delayed: true, k: 1}.pick(entries, ctx)
}

// MaxEBPC implements maximum EBPC first with weight R (§5.3). R = 1
// degenerates to MaxEB, R = 0 to MaxPC.
type MaxEBPC struct {
	R float64
}

// Name implements Strategy.
func (s MaxEBPC) Name() string { return fmt.Sprintf("EBPC(r=%.2f)", s.R) }

// Metric implements MetricStrategy.
func (s MaxEBPC) Metric(e *Entry, ctx Context) float64 { return EBPC(e, ctx, s.R) }

// Pick implements Strategy: maximum r·EB + (1−r)·PC = EB − (1−r)·EB′.
func (s MaxEBPC) Pick(entries []*Entry, ctx Context) int {
	return argmax{delayed: true, k: 1 - s.R}.pick(entries, ctx)
}

// ParseStrategy resolves a CLI/config name: "fifo", "rl", "eb", "pc",
// "ebpc" (default r = 0.5) or "ebpc:<r>".
func ParseStrategy(name string) (Strategy, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	switch {
	case s == "fifo":
		return FIFO{}, nil
	case s == "rl":
		return RL{}, nil
	case s == "eb":
		return MaxEB{}, nil
	case s == "pc":
		return MaxPC{}, nil
	case s == "ebpc":
		return MaxEBPC{R: 0.5}, nil
	case strings.HasPrefix(s, "ebpc:"):
		r, err := strconv.ParseFloat(s[len("ebpc:"):], 64)
		if err != nil || r < 0 || r > 1 {
			return nil, fmt.Errorf("core: bad EBPC weight in %q (want ebpc:<r> with r in [0,1])", name)
		}
		return MaxEBPC{R: r}, nil
	}
	return nil, fmt.Errorf("core: unknown strategy %q (want fifo, rl, eb, pc, ebpc[:r])", name)
}

// Strategies returns the paper's five strategies with the given EBPC
// weight, in the order they appear in the evaluation.
func Strategies(r float64) []Strategy {
	return []Strategy{MaxEB{}, MaxPC{}, MaxEBPC{R: r}, FIFO{}, RL{}}
}
