package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestBufferCollects(t *testing.T) {
	var b Buffer
	b.Emit(Event{T: 1, Kind: Publish, MsgID: 7, Broker: 0})
	b.Emit(Event{T: 2, Kind: Arrive, MsgID: 7, Broker: 0})
	b.Emit(Event{T: 3, Kind: Arrive, MsgID: 8, Broker: 1})
	if len(b.Events) != 3 {
		t.Fatalf("events = %d", len(b.Events))
	}
	if b.Count(Arrive) != 2 || b.Count(Publish) != 1 || b.Count(Drop) != 0 {
		t.Error("counts wrong")
	}
	msg7 := 0
	for _, e := range b.Events {
		if e.MsgID == 7 {
			msg7++
		}
	}
	if msg7 != 2 {
		t.Errorf("msg 7 events = %d, want 2", msg7)
	}
}

func TestNopIsSilent(t *testing.T) {
	var n Nop
	n.Emit(Event{Kind: Publish}) // must not panic
}

func TestJSONLWritesValidLines(t *testing.T) {
	var buf bytes.Buffer
	j := &JSONL{W: &buf}
	j.Emit(Event{T: 1.5, Kind: Send, MsgID: 3, Broker: 2, Peer: 4})
	j.Emit(Event{T: 2.5, Kind: Drop, MsgID: 3, Broker: 4, Note: "expired"})
	if j.Err() != nil {
		t.Fatal(j.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != Drop || e.Note != "expired" {
		t.Errorf("decoded = %+v", e)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, &json.UnsupportedValueError{}
}

func TestJSONLRemembersError(t *testing.T) {
	j := &JSONL{W: failingWriter{}}
	j.Emit(Event{Kind: Publish})
	if j.Err() == nil {
		t.Fatal("error not remembered")
	}
	j.Emit(Event{Kind: Arrive}) // must not panic after error
}
