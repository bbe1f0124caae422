package livenet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// Publisher is a live publishing client attached to an ingress broker.
// It is write-behind: Publish and Send encode the frame into a pending
// buffer and return, and one writer goroutine per publisher hands
// everything that has accumulated to the connection in one write. A
// burst of publications from one goroutine therefore costs a few system
// calls rather than one each. A failed write stops it: every later call
// returns that error, and Lost counts the accepted publications it took.
type Publisher struct {
	id   msg.NodeID
	conn net.Conn

	mu  sync.Mutex
	seq uint32
	// pending holds the encoded frames not yet taken by the writer,
	// never more than pendingCap bytes of them unless one frame alone
	// is larger; spare is the buffer the writer wrote last, swapped in
	// when it takes pending. Neither is reallocated in steady state.
	pending, spare []byte
	room           sync.Cond // signalled when the writer takes pending
	closed         bool
	// err is the write error that stopped the writer and lost how many
	// accepted publications it took with it; both are sticky.
	err  error
	lost int

	wake chan struct{} // 1 slot: pending went non-empty, or Close
	done chan struct{} // closed when the writer has exited
	// deadline is conn's write deadline, armed by the writer goroutine
	// alone.
	deadline writeDeadline

	// Clock stamps publication times. It defaults to the absolute wall
	// clock (scale 1); clients of an in-process cluster with a
	// compressed clock must set it to Cluster.Clock() before publishing.
	Clock runtime.Clock
}

// pendingCap bounds a publisher's pending bytes: the most one read of
// the ingress FrameReader takes, so one write fills at most one read
// there. A caller that finds it full waits for the writer, which is how
// TCP backpressure reaches the publishing goroutine.
const pendingCap = msg.BatchBufSize

// DialPublisher connects publisher `id` to its ingress broker. The id
// doubles as the publisher index for message-id allocation; the ingress
// id must match the broker being dialed (brokers reject messages claiming
// a different ingress).
func DialPublisher(addr string, id msg.NodeID) (*Publisher, error) {
	conn, err := dialRetry(addr, 40, 50*time.Millisecond)
	if err != nil {
		return nil, err
	}
	hello := msg.AppendHello(nil, msg.RolePublisher, id, 0)
	if err := msg.WriteFrame(conn, msg.FrameHello, hello); err != nil {
		conn.Close()
		return nil, err
	}
	return newPublisher(conn, id), nil
}

// newPublisher starts the writer of a publisher on an established
// connection.
func newPublisher(conn net.Conn, id msg.NodeID) *Publisher {
	p := &Publisher{
		id:    id,
		conn:  conn,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		Clock: runtime.AbsoluteWallClock(1),
	}
	p.room.L = &p.mu
	go p.writeLoop()
	return p
}

// Publish queues one message for sending. SizeKB is the emulated size
// that paces the overlay links; allowed is the publisher-specified bound
// (0 in SSD). The publication timestamp is stamped here from the
// publisher's clock. The call returns once the frame is in the pending
// buffer (the payload is copied, so the caller may reuse it), waiting
// only while the buffer is full. A failed write is returned by every
// later call and by Close; Lost counts what it took.
func (p *Publisher) Publish(ingress msg.NodeID, attrs msg.AttrSet, sizeKB float64, allowed vtime.Millis, payload []byte) (msg.ID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := msg.Message{
		ID:        msg.MakeID(p.id, p.seq),
		Publisher: p.id,
		Ingress:   ingress,
		Published: p.Clock.Now(),
		Allowed:   allowed,
		SizeKB:    sizeKB,
		Attrs:     attrs,
		Payload:   payload,
	}
	p.seq++
	if err := p.enqueue(&m); err != nil {
		return 0, err
	}
	return m.ID, nil
}

// Send queues a pre-built message as-is — id, timestamps and ingress
// untouched. The runtime's live driver uses it to inject a plan's
// publication schedule verbatim. It buffers and reports errors as
// Publish does.
func (p *Publisher) Send(m *msg.Message) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.enqueue(m)
}

// enqueue appends m's frame to pending, called with p.mu held. A frame
// that would take pending past pendingCap waits for the writer to take
// what is there; a frame finding pending empty goes in whatever its size,
// and wakes the writer.
func (p *Publisher) enqueue(m *msg.Message) error {
	for {
		if err := p.failure(); err != nil {
			return err
		}
		start := len(p.pending)
		buf, err := msg.AppendMessageFrame(p.pending, m)
		if err != nil {
			return err
		}
		if start == 0 || len(buf) <= pendingCap {
			p.pending = buf
			if start == 0 {
				p.wakeWriter()
			}
			return nil
		}
		p.pending = buf[:start]
		p.room.Wait()
	}
}

// wakeWriter tells the writer to look at pending, unless a wake-up is
// already owed.
func (p *Publisher) wakeWriter() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// failure is the error a call must return, or nil while the publisher
// accepts publications: the write error, or net.ErrClosed once closed.
// Called with p.mu held.
func (p *Publisher) failure() error {
	switch {
	case p.err != nil:
		return p.err
	case p.closed:
		return net.ErrClosed
	}
	return nil
}

// Lost is how many accepted publications a failed write took with it:
// those whose frames did not leave whole and those still pending. It is
// 0 until a write fails, does not change after, and is final once Close
// has returned. Every accepted publication is either written whole or
// counted here.
func (p *Publisher) Lost() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lost
}

// writeLoop is the publisher's writer: it takes whatever is pending,
// swapping in the spare buffer, and writes it with one Write. It exits
// once Close has been called and nothing is pending, or on the first
// failed write, after counting the publications that failure lost.
func (p *Publisher) writeLoop() {
	defer close(p.done)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if len(p.pending) == 0 {
			if p.closed {
				return
			}
			p.mu.Unlock()
			<-p.wake
			p.mu.Lock()
			continue
		}
		out := p.pending
		p.pending = p.spare[:0]
		p.room.Broadcast()
		p.mu.Unlock()
		n, err := 0, p.deadline.arm(p.conn)
		if err == nil {
			n, err = p.conn.Write(out)
		}
		p.mu.Lock()
		if err != nil {
			p.err = err
			p.lost = msg.CompleteFrames(out) - msg.CompleteFrames(out[:n]) + msg.CompleteFrames(p.pending)
			p.pending = p.pending[:0]
			p.room.Broadcast()
			return
		}
		p.spare = out
	}
}

// Close flushes what is pending, waits for the writer, and closes the
// connection. Callers waiting for room are refused with net.ErrClosed.
// It returns the write error, the final flush's included, if a write
// failed (Lost counts what it took); a second Close only reports errors.
func (p *Publisher) Close() error {
	p.mu.Lock()
	first := !p.closed
	p.closed = true
	p.room.Broadcast()
	p.mu.Unlock()
	p.wakeWriter()
	<-p.done
	var cerr error
	if first {
		cerr = p.conn.Close()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	return cerr
}

// Subscriber is a live subscribing client attached to an edge broker.
type Subscriber struct {
	sub  *msg.Subscription
	conn net.Conn
	ch   chan *msg.Message
	done chan struct{}
	once sync.Once

	// lastSeq is the session's resume cursor: the highest per-session
	// delivery sequence received. Deliveries at or below it are
	// duplicates (a replay overlapping frames that did arrive before
	// the disconnect) and are suppressed — exactly-once across resume.
	lastSeq atomic.Uint64

	// Clock judges delivery validity (see Valid). Defaults to the
	// absolute wall clock; set to Cluster.Clock() when the cluster runs
	// on a compressed clock.
	Clock runtime.Clock
}

// ResumeToken identifies a subscriber session for resumption after a
// disconnect: the subscription id plus the last delivery sequence the
// client actually received.
type ResumeToken struct {
	Sub     msg.SubID
	LastSeq uint64
}

// DialSubscriber connects to the edge broker, registers the subscription
// (which the broker floods across the overlay) and starts receiving.
func DialSubscriber(addr string, sub *msg.Subscription) (*Subscriber, error) {
	if sub == nil || sub.Filter == nil {
		return nil, fmt.Errorf("livenet: nil subscription or filter")
	}
	s, err := dialSubscriber(addr, sub)
	if err != nil {
		return nil, err
	}
	body, err := msg.AppendSubscription(nil, sub)
	if err != nil {
		s.conn.Close()
		return nil, err
	}
	if err := msg.WriteFrame(s.conn, msg.FrameSubscribe, body); err != nil {
		s.conn.Close()
		return nil, err
	}
	go s.readLoop()
	return s, nil
}

// ResumeSubscriber reattaches a previously registered subscription
// after a lost connection: instead of re-subscribing (the broker-side
// subscription survived the client), it presents the resume token and
// the edge broker replays the missed deliveries whose bounds still
// hold. The returned subscriber continues the session: its cursor
// starts at the token, so overlapping replays dedup to exactly-once.
func ResumeSubscriber(addr string, sub *msg.Subscription, tok ResumeToken) (*Subscriber, error) {
	if sub == nil || sub.Filter == nil {
		return nil, fmt.Errorf("livenet: nil subscription or filter")
	}
	if tok.Sub != sub.ID {
		return nil, fmt.Errorf("livenet: resume token for sub %d, dialing sub %d", tok.Sub, sub.ID)
	}
	s, err := dialSubscriber(addr, sub)
	if err != nil {
		return nil, err
	}
	s.lastSeq.Store(tok.LastSeq)
	body := msg.AppendResume(nil, tok.Sub, tok.LastSeq)
	if err := msg.WriteFrame(s.conn, msg.FrameResume, body); err != nil {
		s.conn.Close()
		return nil, err
	}
	go s.readLoop()
	return s, nil
}

// dialSubscriber dials the edge broker and performs the hello handshake
// (shared by fresh subscribes and session resumes).
func dialSubscriber(addr string, sub *msg.Subscription) (*Subscriber, error) {
	conn, err := dialRetry(addr, 40, 50*time.Millisecond)
	if err != nil {
		return nil, err
	}
	hello := msg.AppendHello(nil, msg.RoleSubscriber, msg.NodeID(sub.ID), 0)
	if err := msg.WriteFrame(conn, msg.FrameHello, hello); err != nil {
		conn.Close()
		return nil, err
	}
	return &Subscriber{
		sub:   sub,
		conn:  conn,
		ch:    make(chan *msg.Message, 256),
		done:  make(chan struct{}),
		Clock: runtime.AbsoluteWallClock(1),
	}, nil
}

// Token returns the session's current resume token. Valid to call at
// any point, including after the connection died — that is its purpose.
func (s *Subscriber) Token() ResumeToken {
	return ResumeToken{Sub: s.sub.ID, LastSeq: s.lastSeq.Load()}
}

func (s *Subscriber) readLoop() {
	defer close(s.ch)
	// Frames read through one reused body buffer and an interning
	// decoder: the per-delivery cost is the Message handed to the
	// consumer (who keeps it), not the wire machinery. An idle
	// subscription holds the reader's 2 KiB; a batch buffer only while
	// deliveries are queued on the connection.
	fr := msg.NewFrameReader(s.conn)
	var fb msg.FrameBuf
	var dec msg.Decoder
	for {
		ft, body, err := fr.Next(&fb)
		if err != nil {
			return
		}
		// Deliveries arrive as FrameData carrying the session sequence;
		// the cursor suppresses anything already received (replays
		// overlapping the pre-disconnect tail).
		if ft != msg.FrameData {
			continue
		}
		seq, _, _, mb, derr := msg.DecodeDataHeader(body)
		if derr != nil || seq <= s.lastSeq.Load() {
			continue
		}
		m := new(msg.Message)
		// fb stays owned by this loop (nil frame): payloads are copied
		// out because the consumer may hold the message indefinitely.
		if _, err := dec.DecodeMessageInto(m, mb, nil); err != nil {
			continue
		}
		s.lastSeq.Store(seq)
		select {
		case s.ch <- m:
		case <-s.done:
			return
		default:
			// Slow consumer: drop rather than stall the edge broker.
		}
	}
}

// C returns the delivery channel. It is closed when the connection ends.
func (s *Subscriber) C() <-chan *msg.Message { return s.ch }

// Receive waits up to timeout for one delivery.
func (s *Subscriber) Receive(timeout time.Duration) (*msg.Message, error) {
	select {
	case m, ok := <-s.ch:
		if !ok {
			return nil, fmt.Errorf("livenet: subscriber connection closed")
		}
		return m, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("livenet: no delivery within %v", timeout)
	}
}

// Valid reports whether a received message met this subscriber's bound
// (or, in PSD, the publisher's), judged against the subscriber's clock.
func (s *Subscriber) Valid(m *msg.Message, scenario msg.Scenario) bool {
	allowed, _ := scenario.AllowedDelay(m, s.sub)
	return allowed > 0 && s.Clock.Now()-m.Published <= allowed
}

// Unsubscribe withdraws the subscription from the overlay: the edge
// broker removes it and floods the removal, so upstream brokers stop
// forwarding matching messages this way. The connection stays open (a
// subsequent Close tears it down).
func (s *Subscriber) Unsubscribe() error {
	body := msg.AppendUnsubscribe(nil, s.sub.ID)
	if err := s.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	return msg.WriteFrame(s.conn, msg.FrameUnsubscribe, body)
}

// Close tears the subscriber down.
func (s *Subscriber) Close() error {
	s.once.Do(func() { close(s.done) })
	return s.conn.Close()
}
