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
// and re-dialing overlay links, framed writes, incarnation epochs, and
// injected link outages.

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
	// frame is writeFrame's scratch, reused under mu: a control frame
	// costs no allocation.
	frame []byte
}

// swap replaces the connection underneath (the peer was reborn on a new
// port) and returns the old one for the caller to close.
func (p *peerConn) swap(conn net.Conn) (old net.Conn) {
	p.mu.Lock()
	old, p.conn, p.deadline = p.conn, conn, writeDeadline{}
	p.mu.Unlock()
	return old
}

// writeFrame writes one frame, header and body with one Write, framed in
// the connection's own scratch buffer.
func (p *peerConn) writeFrame(frameType byte, body []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.deadline.arm(p.conn); err != nil {
		return err
	}
	frame := append(msg.BeginFrame(p.frame[:0], frameType), body...)
	p.frame = frame[:0]
	if err := msg.EndFrame(frame, 0); err != nil {
		return err
	}
	_, err := p.conn.Write(frame)
	return err
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
		n.mu.Lock()
		n.peers[e.To] = pc
		n.wake[e.To] = wake
		n.estimates[e.To] = &stats.WelfordEstimator{Prior: e.Rate}
		n.linkSenders[e.To] = &ls
		n.mu.Unlock()

		n.wg.Add(1)
		go n.senderLoop(e.To, pc, wake, &ls)
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

// LinkEstimate returns the measured per-KB rate estimate for the link to
// a neighbor (emulated milliseconds per KB), and whether any transfers
// have been observed yet. Before enough observations it returns the
// configured prior.
func (n *Node) LinkEstimate(to msg.NodeID) (stats.Normal, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	est, ok := n.estimates[to]
	if !ok {
		return stats.Normal{}, false
	}
	return est.Estimate(), est.Count() > 0
}

// linkBelief returns the rate the plan believed for the link to a
// neighbor — the estimator's prior — and whether the link exists.
func (n *Node) linkBelief(to msg.NodeID) (stats.Normal, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	est, ok := n.estimates[to]
	if !ok {
		return stats.Normal{}, false
	}
	return est.Prior, true
}
