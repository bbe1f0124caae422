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
type Publisher struct {
	id      msg.NodeID
	conn    net.Conn
	mu      sync.Mutex
	seq     uint32
	buf     []byte      // reusable frame buffer: one allocation-free write per send
	scratch msg.Message // reusable Publish message (guarded by mu)
	// deadline is conn's write deadline (guarded by mu).
	deadline writeDeadline

	// Clock stamps publication times. It defaults to the absolute wall
	// clock (scale 1); clients of an in-process cluster with a
	// compressed clock must set it to Cluster.Clock() before publishing.
	Clock runtime.Clock
}

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
	return &Publisher{id: id, conn: conn, Clock: runtime.AbsoluteWallClock(1)}, nil
}

// Publish sends one message. SizeKB is the emulated size that paces the
// overlay links; allowed is the publisher-specified bound (0 in SSD).
// The publication timestamp is stamped here from the shared wall clock.
func (p *Publisher) Publish(ingress msg.NodeID, attrs msg.AttrSet, sizeKB float64, allowed vtime.Millis, payload []byte) (msg.ID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// The message only lives for the encode below; build it in the
	// publisher's scratch so the hot publish path allocates nothing.
	m := &p.scratch
	*m = msg.Message{
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
	if err := p.send(m); err != nil {
		return 0, err
	}
	return m.ID, nil
}

// Send writes a pre-built message as-is — id, timestamps and ingress
// untouched. The runtime's live driver uses it to inject a plan's
// publication schedule verbatim.
func (p *Publisher) Send(m *msg.Message) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.send(m)
}

func (p *Publisher) send(m *msg.Message) error {
	buf, err := msg.AppendMessageFrame(p.buf[:0], m)
	if err != nil {
		return err
	}
	p.buf = buf
	if err := p.deadline.arm(p.conn); err != nil {
		return err
	}
	_, err = p.conn.Write(buf)
	return err
}

// Close closes the publisher connection.
func (p *Publisher) Close() error { return p.conn.Close() }

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
	// Frames read through one pooled buffer and an interning decoder:
	// the per-delivery cost is the Message handed to the consumer (who
	// keeps it), not the wire machinery.
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
