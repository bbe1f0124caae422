package livenet

import (
	"net"
	"testing"
	"time"

	"bdps/internal/msg"
)

// armCountConn swallows writes and counts SetWriteDeadline calls.
type armCountConn struct {
	discardConn
	arms int
	last time.Time
}

func (c *armCountConn) SetWriteDeadline(t time.Time) error {
	c.arms++
	c.last = t
	return nil
}

// TestWriteDeadlineArmedOncePerSecond pins the deadline's cadence: every
// write keeps a deadline at least writeTimeout − armEvery ahead, but
// back-to-back writes re-arm it once, not once each — and a connection
// swapped in underneath starts unarmed.
func TestWriteDeadlineArmedOncePerSecond(t *testing.T) {
	first := &armCountConn{}
	pc := &peerConn{conn: first}
	frame, err := msg.AppendMessageFrame(nil, &msg.Message{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0:
			err = pc.writeBuf(frame)
		case 1:
			wv := net.Buffers{frame, frame}
			_, err = pc.writeBuffers(&wv)
		case 2:
			err = pc.writeFrame(msg.FrameAck, msg.AppendAck(nil, uint64(i)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took < armEvery && first.arms != 1 {
		t.Errorf("1000 writes in %v armed the deadline %d times, want once", took, first.arms)
	}
	if ahead := first.last.Sub(start); ahead < writeTimeout-armEvery || ahead > writeTimeout+armEvery {
		t.Errorf("deadline armed %v ahead, want about %v", ahead, writeTimeout)
	}

	second := &armCountConn{}
	if old := pc.swap(second); old != net.Conn(first) {
		t.Fatalf("swap returned %v, want the replaced connection", old)
	}
	if err := pc.writeBuf(frame); err != nil {
		t.Fatal(err)
	}
	if second.arms != 1 {
		t.Errorf("first write on a swapped connection armed its deadline %d times, want once", second.arms)
	}

	// An idle connection's deadline has lapsed into the past: the next
	// write re-arms it.
	pc.deadline.armed = pc.deadline.armed.Add(-armEvery)
	if err := pc.writeBuf(frame); err != nil {
		t.Fatal(err)
	}
	if second.arms != 2 {
		t.Errorf("a write %v after the last arm left the deadline alone (%d arms)", armEvery, second.arms)
	}
}
