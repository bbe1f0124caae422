package livenet

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/stats"
)

// SLO observability: a hand-rolled text /metrics endpoint over the
// cluster's counters, in the Prometheus exposition format (name,
// optional labels, value per line) — scrapable by anything without
// pulling an instrumentation dependency into the tree.

// MetricsServer serves a cluster's counters over HTTP.
type MetricsServer struct {
	srv  *http.Server
	addr string
}

// Addr returns the bound listen address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.addr }

// Close shuts the metrics listener down.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// ServeMetrics binds addr and serves GET /metrics with the cluster's
// aggregate and per-node counters as plain text. The server runs until
// Close; scrape errors never touch the data plane.
func (c *Cluster) ServeMetrics(addr string) (*MetricsServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write([]byte(c.RenderMetrics()))
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ms := &MetricsServer{srv: srv, addr: l.Addr().String()}
	go srv.Serve(l)
	return ms, nil
}

// RenderMetrics renders the exposition text: the cluster-wide total of
// every ledger counter (bdps_<name>_total, one per metrics.Counters row),
// then per-broker gauges for the load signals an operator watches during
// an overload (queue occupancy, peak queue, liveness) and a summary of
// the broker's delivery latencies, then per link the measured rate
// beside the rate the plan believed, and each broker's view of its
// neighbors' liveness.
func (c *Cluster) RenderMetrics() string {
	var b strings.Builder
	t := c.TotalStats()
	counter := func(name, help string, v int) {
		fmt.Fprintf(&b, "# HELP bdps_%s %s\n# TYPE bdps_%s counter\nbdps_%s %d\n",
			name, help, name, name, v)
	}
	counter("deliveries_total", "Messages delivered to subscribers.", t.Deliveries)
	for _, info := range metrics.Counters {
		counter(info.Name+"_total", info.Help, *info.Field(&t.Ledger))
	}

	fmt.Fprintf(&b, "# HELP bdps_queue_depth Current output-queue occupancy per broker.\n# TYPE bdps_queue_depth gauge\n")
	for _, id := range c.nodeIDs() {
		fmt.Fprintf(&b, "bdps_queue_depth{broker=\"%d\"} %d\n", id, c.Nodes[id].egress.Load())
	}
	fmt.Fprintf(&b, "# HELP bdps_queue_peak Largest output-queue occupancy per broker.\n# TYPE bdps_queue_peak gauge\n")
	for _, id := range c.nodeIDs() {
		fmt.Fprintf(&b, "bdps_queue_peak{broker=\"%d\"} %d\n", id, c.Nodes[id].PeakQueue())
	}
	fmt.Fprintf(&b, "# HELP bdps_broker_up Whether the broker is running.\n# TYPE bdps_broker_up gauge\n")
	for _, id := range c.nodeIDs() {
		up := 1
		if c.Nodes[id].Stopped() {
			up = 0
		}
		fmt.Fprintf(&b, "bdps_broker_up{broker=\"%d\"} %d\n", id, up)
	}
	fmt.Fprintf(&b, "# HELP bdps_delivery_latency_ms Publish-to-delivery latency of the broker's valid deliveries, in clock ms.\n# TYPE bdps_delivery_latency_ms summary\n")
	for _, id := range c.nodeIDs() {
		h := c.Nodes[id].ledger.Latency()
		for _, q := range [...]float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(&b, "bdps_delivery_latency_ms{broker=\"%d\",quantile=\"%g\"} %g\n", id, q, h.Quantile(q))
		}
		fmt.Fprintf(&b, "bdps_delivery_latency_ms_sum{broker=\"%d\"} %g\nbdps_delivery_latency_ms_count{broker=\"%d\"} %d\n", id, h.Sum(), id, h.Count())
	}

	fmt.Fprintf(&b, "# HELP bdps_link_rate_ms_per_kb Per-KB transfer time of each outgoing link: the sender's estimate and the plan's belief.\n# TYPE bdps_link_rate_ms_per_kb gauge\n")
	const rateLine = "bdps_link_rate_ms_per_kb{from=\"%d\",to=\"%d\",source=\"%s\",stat=\"%s\"} %g\n"
	for _, id := range c.nodeIDs() {
		n := c.Node(id)
		for _, e := range n.cfg.Overlay.Graph.Neighbors(id) {
			belief, ok := n.linkBelief(e.To)
			if !ok {
				continue
			}
			est, _ := n.LinkEstimate(e.To)
			for _, r := range [...]struct {
				source string
				rate   stats.Normal
			}{{"estimate", est}, {"belief", belief}} {
				fmt.Fprintf(&b, rateLine, id, e.To, r.source, "mean", r.rate.Mean)
				fmt.Fprintf(&b, rateLine, id, e.To, r.source, "stddev", r.rate.Sigma)
			}
		}
	}
	fmt.Fprintf(&b, "# HELP bdps_peer_up Whether a broker's heartbeat monitor holds a neighbor alive (1 without heartbeats).\n# TYPE bdps_peer_up gauge\n")
	for _, id := range c.nodeIDs() {
		n := c.Node(id)
		for _, e := range n.cfg.Overlay.Graph.Neighbors(id) {
			up := 1
			if _, dead := n.PeerLiveness(e.To); dead {
				up = 0
			}
			fmt.Fprintf(&b, "bdps_peer_up{broker=\"%d\",peer=\"%d\"} %d\n", id, e.To, up)
		}
	}
	return b.String()
}

// nodeIDs returns the broker ids in ascending order (stable scrapes).
func (c *Cluster) nodeIDs() []msg.NodeID {
	ids := make([]msg.NodeID, 0, len(c.Nodes))
	for id := range c.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
