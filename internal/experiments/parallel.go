package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/topology"
)

// executor runs simulation configs on a bounded worker pool with a
// config-keyed, single-flight run cache. One executor is shared by all
// figures built from the same defaulted Options (All and CheckClaims
// share one across the whole evaluation), so identical cells — across
// points, panels and figures — run exactly once, generalizing the old
// ad-hoc Figure-4 endpoint reuse.
//
// Every simulated run is deterministic in its config, so caching and
// concurrency cannot change any figure value: results are assembled by
// declaration order, never completion order.
type executor struct {
	sem chan struct{} // bounds concurrent runtime.Run calls
	// backend carries every run. Only deterministic backends (the
	// simulator) are cached; live runs always execute.
	backend runtime.Transport

	progressMu sync.Mutex
	progress   func(string)

	mu    sync.Mutex
	cache map[string]*cacheSlot
	// pinned holds every adopted overlay that entered a cache key: keys
	// use the overlay's address (%p), so the executor keeps the overlay
	// reachable for the cache's lifetime — a freed overlay's address
	// could otherwise be recycled for a different one and collide.
	pinned []*topology.Overlay
}

// cacheSlot is one in-flight or completed run. done is closed by the
// goroutine that claimed the slot once res/err are set.
type cacheSlot struct {
	done chan struct{}
	res  metrics.Result
	err  error
}

func newExecutor(parallelism int, progress func(string), backend runtime.Transport) *executor {
	if parallelism < 1 {
		parallelism = 1
	}
	if backend == nil {
		backend = simnet.Transport{}
	}
	return &executor{
		sem:      make(chan struct{}, parallelism),
		backend:  backend,
		progress: progress,
		cache:    make(map[string]*cacheSlot),
	}
}

// emit forwards one progress line, serializing concurrent workers.
func (ex *executor) emit(line string) {
	if ex.progress == nil {
		return
	}
	ex.progressMu.Lock()
	defer ex.progressMu.Unlock()
	ex.progress(line)
}

// run executes one config, deduplicating identical configs: concurrent
// and repeated requests for the same key share a single run.
func (ex *executor) run(cfg runtime.Config) (metrics.Result, error) {
	res, err, pending := ex.runOrDefer(cfg)
	if pending != nil {
		<-pending.done
		return pending.res, pending.err
	}
	return res, err
}

// runOrDefer is run, except that when an identical run is already in
// flight it returns that run's slot instead of blocking: pool workers
// keep dispatching unique cells and collect deferred slots after the
// batch drains, so a duplicate never idles a worker.
func (ex *executor) runOrDefer(cfg runtime.Config) (metrics.Result, error, *cacheSlot) {
	cfg.Strategy = normalizeStrategy(cfg.Strategy)
	key, cacheable := configKey(&cfg)
	if !ex.backend.Deterministic() {
		cacheable = false
	}
	if !cacheable {
		res, err := ex.exec(cfg)
		return res, err, nil
	}
	ex.mu.Lock()
	if s, ok := ex.cache[key]; ok {
		ex.mu.Unlock()
		select {
		case <-s.done:
			return s.res, s.err, nil
		default:
			return metrics.Result{}, nil, s
		}
	}
	s := &cacheSlot{done: make(chan struct{})}
	ex.cache[key] = s
	if cfg.Overlay != nil {
		ex.pinned = append(ex.pinned, cfg.Overlay)
	}
	ex.mu.Unlock()
	s.res, s.err = ex.exec(cfg)
	close(s.done)
	return s.res, s.err, nil
}

// exec performs the actual run under the worker-slot semaphore.
func (ex *executor) exec(cfg runtime.Config) (metrics.Result, error) {
	ex.sem <- struct{}{}
	defer func() { <-ex.sem }()
	r, err := runtime.Run(cfg, ex.backend)
	if err == nil {
		ex.emit(r.String())
	}
	return r, err
}

// runAll executes a batch of configs and returns their results aligned
// by index. With one worker the batch runs strictly in order — the old
// sequential harness, early abort included. Otherwise a pool of
// Parallelism workers drains the batch; once any cell fails, no further
// cells are handed out (in-flight ones finish), and the lowest-index
// recorded error is returned. Indices are handed out in order and every
// started cell completes, so the lowest-index failing cell always
// runs and its error always wins: failures are deterministic too
// (TestRunAllDeterministicError). Results are only used on full
// success, so cancellation cannot perturb figure output.
func (ex *executor) runAll(cfgs []runtime.Config) ([]metrics.Result, error) {
	out := make([]metrics.Result, len(cfgs))
	workers := cap(ex.sem)
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	if workers <= 1 {
		for i := range cfgs {
			var err error
			if out[i], err = ex.run(cfgs[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, len(cfgs))
	var failed atomic.Bool
	type hit struct {
		i int
		s *cacheSlot
	}
	var hitMu sync.Mutex
	var deferredHits []hit
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err, pending := ex.runOrDefer(cfgs[i])
				if pending != nil {
					hitMu.Lock()
					deferredHits = append(deferredHits, hit{i, pending})
					hitMu.Unlock()
					continue
				}
				if out[i], errs[i] = res, err; err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range cfgs {
		if failed.Load() {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	// Duplicates of runs that were in flight at dispatch time: their
	// claimers have either finished with the batch or belong to a
	// concurrent batch on the same executor, so waiting here holds no
	// worker slot hostage.
	for _, h := range deferredHits {
		<-h.s.done
		out[h.i], errs[h.i] = h.s.res, h.s.err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// normalizeStrategy maps strategies that coincide by construction onto
// one representative, so their cells share a cache key and the figures
// stay exactly consistent: EBPC degenerates to pure PC at r=0 and pure
// EB at r=1 (eq. 10), which is also a third of the Figure-4 sweep saved.
func normalizeStrategy(s core.Strategy) core.Strategy {
	if e, ok := s.(core.MaxEBPC); ok {
		switch e.R {
		case 0:
			return core.MaxPC{}
		case 1:
			return core.MaxEB{}
		}
	}
	return s
}

// configKey renders a config into a cache key covering every field, or
// reports it uncacheable. Traced or explicitly-subscribed runs are never
// cached: their extra inputs have no cheap canonical form and no
// experiment repeats them. The key is the config's Go syntax (%#v): it
// spells out the dynamic type of the strategy (FIFO{} and RL{} differ)
// and of every fault — which is what lets the recovery ablation's
// kill-half cells hit the run cache — and prints an adopted overlay by
// address, since experiments reuse one *Overlay across the cells that
// share it. A field added to runtime.Config joins the key by itself.
func configKey(cfg *runtime.Config) (string, bool) {
	if cfg.Tracer != nil || cfg.Subscriptions != nil {
		return "", false
	}
	return fmt.Sprintf("%#v", *cfg), true
}
