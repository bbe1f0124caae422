package livenet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/stats"
)

// This file is the node's link layer: the connections to and from
// neighbor brokers and clients — listening and the accept loop, dialing
// and re-dialing overlay links, framed writes and each link's control
// buffer, incarnation epochs, and injected link outages.

// writeDeadline keeps one connection's write deadline armed. A stalled
// peer must fail a write within writeTimeout, but SetWriteDeadline costs
// a timer update on every call, so the deadline is re-armed only once
// armEvery has passed since the last arm: it stays between writeTimeout −
// armEvery and writeTimeout ahead of every write. The zero value arms on
// first use; a swapped connection starts from a zero value again.
type writeDeadline struct{ armed time.Time }

const (
	writeTimeout = 10 * time.Second
	armEvery     = time.Second
)

// arm is called before each write to c by whatever serializes the
// connection's writes: a peerConn's lock, or a Publisher's writer
// goroutine, the only one that writes its connection.
func (d *writeDeadline) arm(c net.Conn) error {
	now := time.Now()
	if now.Sub(d.armed) < armEvery {
		return nil
	}
	if err := c.SetWriteDeadline(now.Add(writeTimeout)); err != nil {
		return err
	}
	d.armed = now
	return nil
}

type peerConn struct {
	mu       sync.Mutex
	conn     net.Conn
	deadline writeDeadline
	// ctl is the link's control buffer, used under mu: the frames a read
	// loop queued (queueFrame) wait here until that loop's idle flush, or
	// the next immediate write on the link, sends them with one Write.
	// Every control frame is framed in it, so one costs no allocation.
	// It is one of ctlArrays, taken by the first frame and given back by
	// the flush that empties it: nil while nothing is queued.
	ctl []byte
}

const (
	// ctlLimit is the most a control buffer holds: a queuer that fills
	// it to this writes it out itself.
	ctlLimit = 64 << 10
	// ctlRoom is the headroom a control array keeps past ctlLimit, so the
	// frame that crosses the limit still fits.
	ctlRoom = 4 << 10
)

// ctlArray is the control buffers' storage, recycled through ctlArrays:
// a burst of floods reuses the arrays the last one filled instead of
// growing fresh buffers, and an idle link holds none.
type ctlArray = [ctlLimit + ctlRoom]byte

var ctlArrays = sync.Pool{New: func() any { return new(ctlArray) }}

// swap replaces the connection underneath (the peer was reborn on a new
// port) and returns the old one for the caller to close. Queued control
// frames go out on the new connection.
func (p *peerConn) swap(conn net.Conn) (old net.Conn) {
	p.mu.Lock()
	old, p.conn, p.deadline = p.conn, conn, writeDeadline{}
	p.mu.Unlock()
	return old
}

// appendCtl frames one control frame onto the control buffer (p.mu
// held), taking an array for it if it has none. A body too large to
// frame leaves the buffer as it was.
func (p *peerConn) appendCtl(frameType byte, body []byte) error {
	if p.ctl == nil {
		p.ctl = ctlArrays.Get().(*ctlArray)[:0]
	}
	start := len(p.ctl)
	frame := append(msg.BeginFrame(p.ctl, frameType), body...)
	if err := msg.EndFrame(frame, start); err != nil {
		return err
	}
	p.ctl = frame
	return nil
}

// flushCtlLocked writes the control buffer with one Write (p.mu held)
// and gives its array back, whether or not the write succeeded: a dead
// peer loses its control frames. A buffer a frame bigger than ctlRoom
// pushed off its array is left to the collector.
func (p *peerConn) flushCtlLocked() error {
	if p.ctl == nil {
		return nil
	}
	var err error
	if len(p.ctl) > 0 {
		if err = p.deadline.arm(p.conn); err == nil {
			_, err = p.conn.Write(p.ctl)
		}
	}
	if cap(p.ctl) == ctlLimit+ctlRoom {
		ctlArrays.Put((*ctlArray)(p.ctl[:cap(p.ctl)]))
	}
	p.ctl = nil
	return err
}

// writeFrame writes one control frame now, behind whatever control
// frames are queued ahead of it: the queue and the frame leave with one
// Write, so the link's control frames keep their order.
func (p *peerConn) writeFrame(frameType byte, body []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.appendCtl(frameType, body); err != nil {
		return err
	}
	return p.flushCtlLocked()
}

// queueFrame queues one control frame for the caller's next flushCtl; a
// buffer it fills to ctlLimit it writes out at once. Write errors are
// dropped: a flood to a dead peer is lost either way.
func (p *peerConn) queueFrame(frameType byte, body []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.appendCtl(frameType, body) == nil && len(p.ctl) >= ctlLimit {
		_ = p.flushCtlLocked()
	}
}

// flushCtl writes whatever control frames are queued, if any.
func (p *peerConn) flushCtl() {
	p.mu.Lock()
	_ = p.flushCtlLocked()
	p.mu.Unlock()
}

// writeBuf writes preassembled frames (headers and bodies in one
// contiguous buffer) with a single syscall, returning the bytes written
// (for partial-failure accounting).
func (p *peerConn) writeBuf(frames []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.deadline.arm(p.conn); err != nil {
		return 0, err
	}
	return p.conn.Write(frames)
}

// writeBuffers flushes preassembled frames held in several buffers with
// writev, returning the bytes written. WriteTo consumes *bufs (the slice
// header advances and elements are re-sliced); the caller passes a
// long-lived scratch it rebuilds per flush, so nothing escapes per call.
func (p *peerConn) writeBuffers(bufs *net.Buffers) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.deadline.arm(p.conn); err != nil {
		return 0, err
	}
	return bufs.WriteTo(p.conn)
}

// observeEpoch raises the recorded incarnation epoch of a neighbor
// broker (Hello and heartbeat frames announce it).
func (n *Node) observeEpoch(peer msg.NodeID, e uint32) {
	if peer == msg.None {
		return
	}
	n.epochMu.Lock()
	if e > n.peerEpochs[peer] {
		n.peerEpochs[peer] = e
	}
	n.epochMu.Unlock()
}

// epochFloor is the newest incarnation epoch a neighbor has announced: a
// data frame carrying an older one was sent by a dead incarnation. It is
// kept per neighbor, not per connection, because a reborn neighbor's
// Hello arrives on a new connection while the old one still drains.
func (n *Node) epochFloor(peer msg.NodeID) uint32 {
	n.epochMu.Lock()
	defer n.epochMu.Unlock()
	return n.peerEpochs[peer]
}

// Listen binds the node's TCP listener and starts accepting connections.
// It returns the bound address (useful with ":0").
func (n *Node) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	n.listener = l
	n.wg.Add(1)
	go n.acceptLoop()
	return l.Addr().String(), nil
}

// acceptLoop accepts inbound connections (brokers, publishers,
// subscribers) and spawns a reader per connection.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.stopped:
				return
			default:
				continue
			}
		}
		n.mu.Lock()
		select {
		case <-n.stopped:
			n.mu.Unlock()
			conn.Close()
			return
		default:
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// ConnectPeers dials every overlay neighbor at the given addresses and
// starts one sender goroutine per link. Addresses of non-neighbors are
// ignored.
func (n *Node) ConnectPeers(addrs map[msg.NodeID]string) error {
	for _, e := range n.cfg.Overlay.Graph.Neighbors(n.cfg.ID) {
		addr, ok := addrs[e.To]
		if !ok {
			return fmt.Errorf("livenet: broker %d: no address for neighbor %d", n.cfg.ID, e.To)
		}
		conn, err := dialRetry(addr, 40, 50*time.Millisecond)
		if err != nil {
			return fmt.Errorf("livenet: broker %d dialing %d: %w", n.cfg.ID, e.To, err)
		}
		hello := msg.AppendHello(nil, msg.RoleBroker, n.cfg.ID, n.epoch.Load())
		if err := msg.WriteFrame(conn, msg.FrameHello, hello); err != nil {
			conn.Close()
			return err
		}
		spec := n.cfg.Links[e.To]
		if spec.Sampler == nil {
			spec.Sampler = runtime.NewSampler(runtime.LinkNormal, e.Rate, 1)
			spec.Stream = stats.DeriveN(n.cfg.Seed, "livenet/link", int(n.cfg.ID)<<16|int(uint16(e.To)))
		}
		// Every link runs the one sender: a nil adversary is a clean link.
		// A restarted incarnation resumes the link sequence from the
		// checkpointed watermark (zero without one).
		ls := runtime.NewLinkSend(n.cfg.ID, e.To, spec, nil)
		ls.Resume(n.recovered.Marks[e.To])
		pc := &peerConn{conn: conn}
		wake := make(chan struct{}, 1)
		prior := e.Rate
		if n.cfg.Plan != nil {
			prior = n.cfg.Plan.Beliefs(n.cfg.ID, e.To)
		}
		est := &linkEstimate{est: stats.WelfordEstimator{Prior: prior}}
		n.mu.Lock()
		n.peers[e.To] = pc
		n.wake[e.To] = wake
		n.estimates[e.To] = est
		n.linkSenders[e.To] = &ls
		n.mu.Unlock()

		n.wg.Add(1)
		go n.senderLoop(e.To, pc, wake, &ls, est)
	}
	n.startHeartbeats()
	return nil
}

// ReconnectPeer re-dials one overlay neighbor at a new address — a
// crashed peer reborn on a fresh port — and swaps the link's connection
// in place: the sender goroutine, pacer, link sequence and per-link
// counters all survive, only the wire underneath changes (the reborn
// peer's fresh receive cursor follows the first frame's base). The old
// connection is closed.
func (n *Node) ReconnectPeer(to msg.NodeID, addr string) error {
	conn, err := dialRetry(addr, 40, 50*time.Millisecond)
	if err != nil {
		return fmt.Errorf("livenet: broker %d re-dialing %d: %w", n.cfg.ID, to, err)
	}
	hello := msg.AppendHello(nil, msg.RoleBroker, n.cfg.ID, n.epoch.Load())
	if err := msg.WriteFrame(conn, msg.FrameHello, hello); err != nil {
		conn.Close()
		return err
	}
	n.mu.Lock()
	pc := n.peers[to]
	n.mu.Unlock()
	if pc == nil {
		conn.Close()
		return fmt.Errorf("livenet: broker %d has no link to %d", n.cfg.ID, to)
	}
	pc.swap(conn).Close()
	return nil
}

func dialRetry(addr string, attempts int, backoff time.Duration) (net.Conn, error) {
	var lastErr error
	for i := 0; i < attempts; i++ {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(backoff)
	}
	return nil, lastErr
}

// SetLinkDown injects (or lifts) a link outage on the outgoing link to a
// neighbor: while down, the sender starts no new transfers (an in-flight
// transfer finishes, as in the simulator's fault model).
func (n *Node) SetLinkDown(to msg.NodeID, down bool) {
	n.mu.Lock()
	n.linkDown[to] = down
	wake := n.wake[to]
	n.mu.Unlock()
	if !down && wake != nil {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

// linkEstimate is one outgoing link's measured rate: its sender observes
// every burst under mu, the link's own lock, so a burst never stalls the
// read loops that hold the node lock shared.
type linkEstimate struct {
	mu  sync.Mutex
	est stats.WelfordEstimator
}

// observe records one burst's measured per-KB rate.
func (l *linkEstimate) observe(x float64) {
	l.mu.Lock()
	l.est.Observe(x)
	l.mu.Unlock()
}

// estimateOf returns the estimator of the link to a neighbor, nil when
// there is none.
func (n *Node) estimateOf(to msg.NodeID) *linkEstimate {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.estimates[to]
}

// LinkEstimate returns the measured per-KB rate estimate for the link to
// a neighbor (emulated milliseconds per KB), and whether any transfers
// have been observed yet. Before enough observations it returns the
// configured prior.
func (n *Node) LinkEstimate(to msg.NodeID) (stats.Normal, bool) {
	l := n.estimateOf(to)
	if l == nil {
		return stats.Normal{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.est.Estimate(), l.est.Count() > 0
}

// linkBelief returns the rate the plan believed for the link to a
// neighbor — the estimator's prior — and whether the link exists.
func (n *Node) linkBelief(to msg.NodeID) (stats.Normal, bool) {
	l := n.estimateOf(to)
	if l == nil {
		return stats.Normal{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.est.Prior, true
}
