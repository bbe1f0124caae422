package broker

import (
	"fmt"
	"sync"
	"testing"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/vtime"
)

// TestProcessorsConcurrentWithTableChurn is the live plane's churn
// contract under -race: concurrent Processors (each with private match
// scratch, sharing the table's index) process messages under a reader
// lock while subscription floods mutate the table under the writer
// lock — exactly the synchronization the live node uses. The static
// population must match on every processed message.
func TestProcessorsConcurrentWithTableChurn(t *testing.T) {
	table := routing.NewTable(0)
	static := &msg.Subscription{ID: 1, Edge: 0, Filter: filter.MustParse("A1 < 100")}
	table.Add(&routing.Entry{Sub: static, Source: 0, Next: msg.None})
	// The one-sided filters leave the source on its scan; EnableIndex
	// moves it to an index, which it keeps through the churn below (the
	// routing tests pin that an indexed source keeps its index).
	table.EnableIndex()

	b, err := New(Config{
		ID:       0,
		Scenario: msg.PSD,
		Params:   core.DefaultParams(),
		Strategy: core.MaxEB{},
		Table:    table,
	})
	if err != nil {
		t.Fatal(err)
	}

	// mu mirrors livenet's node lock: workers shared, floods exclusive.
	var mu sync.RWMutex
	var wg sync.WaitGroup
	const workers = 4
	const perWorker = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			proc := b.NewProcessor()
			for i := 0; i < perWorker; i++ {
				m := &msg.Message{
					ID:        msg.MakeID(msg.NodeID(w), uint32(i)),
					Publisher: msg.NodeID(w),
					Ingress:   0,
					Published: 0,
					Allowed:   vtime.Hour,
					SizeKB:    1,
					Attrs:     msg.NumAttrs(map[string]float64{"A1": 50, "A2": 1}),
				}
				mu.RLock()
				res := proc.Process(m, 1)
				delivered := false
				for _, d := range res.Deliveries {
					if d.SubID == static.ID {
						delivered = true
					}
				}
				mu.RUnlock()
				if !delivered {
					t.Errorf("worker %d msg %d: static subscription not delivered during churn", w, i)
					return
				}
			}
		}(w)
	}

	// Flood mutator: churn subscriptions in and out under the write lock.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			id := msg.SubID(100 + i%23)
			s := &msg.Subscription{ID: id, Edge: 0,
				Filter: filter.MustParse(fmt.Sprintf("A1 < %d && A2 < %d", i%120, i%7))}
			mu.Lock()
			if table.RemoveSub(id) == 0 {
				table.Add(&routing.Entry{Sub: s, Source: 0, Next: msg.None})
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	<-done
}
