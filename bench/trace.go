package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one traced interval. Spans are recorded from the benchmark's
// own files, around its calls into each layer, kept in memory, and
// written out when the workload ends. A span's self time is its
// duration minus what its children cover.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span id, -1 for a root
	MsgID  uint64 `json:"msg_id"`
}

type tracer struct{ spans []span }

func (t *tracer) add(name string, start, end int64, parent int, msgID uint64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, MsgID: msgID})
	return id
}

// publication adds one traced publication: root e2e (due → received)
// with children gen.wait, livenet.publish_call and livenet.transit, and
// under transit one synthetic hop[i] span per broker on the path whose
// children are the replayed layer calls laid end to end. What transit
// has left after its hops is livenet.unaccounted: wake-ups, syscalls,
// the scheduler.
func (t *tracer) publication(p pubSpan, hops []hopCost) {
	if p.rcv == 0 {
		return
	}
	root := t.add("e2e", p.due, p.rcv, -1, p.seq)
	t.add("gen.wait", p.due, p.start, root, p.seq)
	t.add("livenet.publish_call", p.start, p.ret, root, p.seq)
	transit := t.add("livenet.transit", p.ret, p.rcv, root, p.seq)
	at := p.ret
	for i, h := range hops {
		hop := t.add(fmt.Sprintf("hop[%d]", i), at, at+int64(h.total()), transit, p.seq)
		stage := func(name string, ns float64, parent int) int {
			if ns <= 0 {
				return -1
			}
			id := t.add(name, at, at+int64(ns), parent, p.seq)
			at += int64(ns)
			return id
		}
		stage("msg.decode", h.decode, hop)
		procStart := at
		if proc := stage("broker.process", h.process, hop); proc >= 0 && h.match > 0 {
			t.add("routing.match", procStart, procStart+int64(h.match), proc, p.seq)
		}
		stage("core.enqueue", h.enqueue, hop)
		stage("core.pop_burst", h.popBurst, hop)
		stage("msg.encode", h.encode, hop)
	}
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
