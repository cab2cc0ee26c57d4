package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobiledl/internal/metrics"
	"mobiledl/internal/trace"
)

// Cluster health states surfaced on /healthz ("cluster" field) and
// /v1/cluster/state.
const (
	// StatusSolo: no peers configured; the node is a cluster of one.
	StatusSolo = "solo"
	// StatusJoining: peers are configured but no gossip exchange has
	// succeeded yet.
	StatusJoining = "joining"
	// StatusOK: at least one peer is alive.
	StatusOK = "ok"
	// StatusPartitioned: the node has known peers but currently none of them
	// are alive — it is serving what it has, cut off from the rest.
	StatusPartitioned = "partitioned"
)

// Config wires a Node to its process and its peers.
type Config struct {
	// NodeID names this node in the ring and in gossip. Must be non-empty
	// and unique across the cluster.
	NodeID string
	// AdvertiseAddr is the host:port peers dial to reach this node's HTTP
	// listener. Must be non-empty (the bound listener address in practice).
	AdvertiseAddr string
	// Peers are seed addresses (host:port) gossiped to until their nodes are
	// members. Empty means a solo cluster.
	Peers []string
	// GossipInterval paces the gossip loop (default 1s).
	GossipInterval time.Duration
	// SuspectAfter is how long a member's heartbeat may stall before the
	// member is considered dead and dropped from routing (default
	// 3*GossipInterval).
	SuspectAfter time.Duration
	// LocalRPS, when positive, gates locally served predicts through a token
	// bucket: beyond it the node sheds 429. This models fixed per-node
	// serving capacity (and is the gossiped load signal's denominator).
	// Forwarded requests are exempt — proxying is not compute.
	LocalRPS float64
	// Inventory snapshots what this node can serve right now: model name ->
	// current version. Called from the gossip loop and the routing path;
	// must be cheap and safe for concurrent use.
	Inventory func() map[string]int
	// Tracer, when set, traces forwarded predicts (fwd.remote spans joined
	// to the inbound traceparent). Nil disables at near-zero cost.
	Tracer *trace.Tracer
	// Logger receives membership transitions and forward failures; nil
	// means slog.Default().
	Logger *slog.Logger
	// Client performs forwarding and gossip HTTP calls; nil gets a default
	// with a 10s timeout (individual calls still honor request contexts).
	Client *http.Client
}

func (c *Config) fill() error {
	if c.NodeID == "" {
		return fmt.Errorf("cluster: config needs a NodeID")
	}
	if c.AdvertiseAddr == "" {
		return fmt.Errorf("cluster: config needs an AdvertiseAddr")
	}
	if c.Inventory == nil {
		return fmt.Errorf("cluster: config needs an Inventory callback")
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.GossipInterval
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return nil
}

// member is one known node's gossiped state plus local bookkeeping.
type member struct {
	ID   string
	Addr string
	// Gen is the node's incarnation: seeded from its boot clock, so each
	// restart gossips a strictly higher value. A higher Gen wins a merge
	// outright — heartbeats only order states within one incarnation.
	Gen       uint64
	Heartbeat uint64
	Load      float64
	Models    map[string]int
	// lastAdvance is the local clock when Heartbeat last increased — the
	// liveness reference (never compare remote clocks).
	lastAdvance time.Time
	score       *peerScore
}

func (m *member) alive(now time.Time, suspectAfter time.Duration) bool {
	return now.Sub(m.lastAdvance) <= suspectAfter
}

// Node is one cluster participant. Create with New, start gossip with
// Start, mount Handler in front of the serving mux, Stop at shutdown.
type Node struct {
	cfg  Config
	gate *tokenBucket

	mu      sync.Mutex
	members map[string]*member // by node id, self included
	// ring caches the hash ring for the current alive set; ringKey is the
	// alive set it was built from.
	ring    *ring
	ringKey string
	// exchanged is set after the first successful gossip exchange.
	exchanged bool

	started  atomic.Bool
	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}

	// counters for /metrics.
	forwards      atomic.Uint64
	forwardErrors atomic.Uint64
	hopRejects    atomic.Uint64
	shed          atomic.Uint64
	gossipRounds  atomic.Uint64
	gossipFails   atomic.Uint64
	// localAdmits feeds the gossiped load signal (admitted-per-interval /
	// LocalRPS*interval).
	localAdmits atomic.Uint64
	loadGauge   atomic.Uint64 // math.Float64bits of the last computed load
}

// New validates the config and builds a stopped Node (membership = self).
func New(cfg Config) (*Node, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		members: make(map[string]*member),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	if cfg.LocalRPS > 0 {
		n.gate = newTokenBucket(cfg.LocalRPS)
	}
	n.members[cfg.NodeID] = &member{
		ID: cfg.NodeID, Addr: cfg.AdvertiseAddr,
		Gen: uint64(time.Now().UnixNano()), Heartbeat: 1,
		Models: cfg.Inventory(), lastAdvance: time.Now(), score: &peerScore{},
	}
	return n, nil
}

// Start launches the gossip loop. Safe to skip for solo nodes (the local
// inventory is still refreshed lazily on the routing path). Idempotent.
func (n *Node) Start() {
	if n.started.Swap(true) {
		return
	}
	go n.gossipLoop()
}

// Stop terminates the gossip loop and waits for it to exit. Idempotent and
// safe on a never-started node.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	if n.started.Load() {
		<-n.done
	}
}

// Status derives the cluster health state (see the Status* constants).
func (n *Node) Status() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.cfg.Peers) == 0 && len(n.members) == 1 {
		return StatusSolo
	}
	if !n.exchanged {
		return StatusJoining
	}
	now := time.Now()
	alivePeers := 0
	for id, m := range n.members {
		if id == n.cfg.NodeID {
			continue
		}
		if m.alive(now, n.cfg.SuspectAfter) {
			alivePeers++
		}
	}
	if alivePeers == 0 {
		return StatusPartitioned
	}
	return StatusOK
}

// refreshSelf re-snapshots the local inventory and load into the membership
// table and bumps the heartbeat. Called each gossip tick (and before serving
// state) so peers always see current truth.
func (n *Node) refreshSelf(now time.Time) {
	inv := n.cfg.Inventory()
	load := n.computeLoad()
	n.mu.Lock()
	self := n.members[n.cfg.NodeID]
	self.Heartbeat++
	self.Models = inv
	self.Load = load
	self.lastAdvance = now
	n.mu.Unlock()
}

// computeLoad turns the admitted-request counter into a utilization in
// [0, 1+] against the node's configured capacity over one gossip interval.
// Uncapped nodes report 0 (no capacity model to be utilized against).
func (n *Node) computeLoad() float64 {
	admitted := n.localAdmits.Swap(0)
	if n.cfg.LocalRPS <= 0 {
		return 0
	}
	capacity := n.cfg.LocalRPS * n.cfg.GossipInterval.Seconds()
	if capacity <= 0 {
		return 0
	}
	load := float64(admitted) / capacity
	n.loadGauge.Store(floatBits(load))
	return load
}

// aliveLocked snapshots the alive member set (self always included) under
// n.mu.
func (n *Node) aliveLocked(now time.Time) []*member {
	out := make([]*member, 0, len(n.members))
	for id, m := range n.members {
		if id == n.cfg.NodeID || m.alive(now, n.cfg.SuspectAfter) {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// candidate is one routing choice for a model: a copy of a member's identity
// taken while n.mu was held, so request goroutines never touch mutable
// member fields the gossip merge rewrites concurrently. The score handle is
// safe to share — it is internally locked and never reassigned after the
// member is created.
type candidate struct {
	ID    string
	Addr  string
	score *peerScore
}

// candidates returns the alive nodes that can serve model, in ring order
// reordered by score bucket (healthy cluster: pure ring order; degraded
// peers demoted). Self's inventory is consulted live so routing never trusts
// a stale self snapshot. The ring is rebuilt only when the alive set
// changed, and everything mutable is copied out under n.mu — *member
// pointers never escape the lock.
func (n *Node) candidates(model string, now time.Time) []candidate {
	localInv := n.cfg.Inventory()
	_, localHas := localInv[model]

	n.mu.Lock()
	alive := n.aliveLocked(now)
	ids := make([]string, len(alive))
	byID := make(map[string]*member, len(alive))
	for i, m := range alive {
		ids[i] = m.ID
		byID[m.ID] = m
	}
	key := strings.Join(ids, "\x00")
	if n.ring == nil || key != n.ringKey {
		n.ring = buildRing(ids, defaultVNodes)
		n.ringKey = key
	}
	ordered := n.ring.owners(model, len(byID))
	cands := make([]candidate, 0, len(ordered))
	for _, id := range ordered {
		m := byID[id]
		if m == nil {
			continue
		}
		if id == n.cfg.NodeID {
			if !localHas {
				continue
			}
		} else if _, ok := m.Models[model]; !ok {
			continue
		}
		cands = append(cands, candidate{ID: m.ID, Addr: m.Addr, score: m.score})
	}
	n.mu.Unlock()

	if len(cands) > 1 {
		// Stable sort by quantized score, descending: ties (the healthy
		// common case) keep ring order, so sharding stays deterministic.
		buckets := make(map[string]float64, len(cands))
		for _, c := range cands {
			if c.ID == n.cfg.NodeID {
				buckets[c.ID] = 1 // never demote self on self-score
				continue
			}
			buckets[c.ID] = bucket(c.score.score(now, n.cfg.SuspectAfter))
		}
		sort.SliceStable(cands, func(i, j int) bool {
			return buckets[cands[i].ID] > buckets[cands[j].ID]
		})
	}
	return cands
}

// MemberView is one row of the /v1/cluster/state listing.
type MemberView struct {
	ID        string         `json:"id"`
	Addr      string         `json:"addr"`
	Self      bool           `json:"self,omitempty"`
	Alive     bool           `json:"alive"`
	Gen       uint64         `json:"gen"`
	Heartbeat uint64         `json:"heartbeat"`
	Load      float64        `json:"load"`
	Models    map[string]int `json:"models"`
	AgeMs     float64        `json:"age_ms"`
	Score     float64        `json:"score"`
}

// StateView is the /v1/cluster/state payload: membership plus the routing
// table (model -> candidate node ids in attempt order).
type StateView struct {
	NodeID  string              `json:"node_id"`
	Status  string              `json:"status"`
	Members []MemberView        `json:"members"`
	Routes  map[string][]string `json:"routes"`
}

// State snapshots the node's view of the cluster.
func (n *Node) State() StateView {
	now := time.Now()
	n.refreshSelf(now)
	sv := StateView{NodeID: n.cfg.NodeID, Status: n.Status(), Routes: make(map[string][]string)}
	n.mu.Lock()
	ids := make([]string, 0, len(n.members))
	for id := range n.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	models := make(map[string]struct{})
	for _, id := range ids {
		m := n.members[id]
		mv := MemberView{
			ID: m.ID, Addr: m.Addr, Self: id == n.cfg.NodeID,
			Alive:     id == n.cfg.NodeID || m.alive(now, n.cfg.SuspectAfter),
			Gen:       m.Gen,
			Heartbeat: m.Heartbeat, Load: m.Load, Models: m.Models,
			AgeMs: float64(now.Sub(m.lastAdvance)) / float64(time.Millisecond),
			Score: m.score.score(now, n.cfg.SuspectAfter),
		}
		sv.Members = append(sv.Members, mv)
		for name := range m.Models {
			models[name] = struct{}{}
		}
	}
	n.mu.Unlock()
	for name := range models {
		cands := n.candidates(name, now)
		route := make([]string, len(cands))
		for i, c := range cands {
			route[i] = c.ID
		}
		sv.Routes[name] = route
	}
	return sv
}

// WriteMetrics exports the cluster gauges and counters for /metrics (wired
// via serve.Server.AddMetricsSource).
func (n *Node) WriteMetrics(pw *metrics.PromWriter) {
	now := time.Now()
	n.mu.Lock()
	alivePeers := 0
	type peerRow struct {
		id    string
		score float64
	}
	rows := make([]peerRow, 0, len(n.members))
	total := len(n.members)
	for id, m := range n.members {
		if id == n.cfg.NodeID {
			continue
		}
		if m.alive(now, n.cfg.SuspectAfter) {
			alivePeers++
		}
		rows = append(rows, peerRow{id: id, score: m.score.score(now, n.cfg.SuspectAfter)})
	}
	n.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	node := metrics.Label{Name: "node", Value: n.cfg.NodeID}
	pw.Gauge("mobiledl_cluster_peers", "Alive peers (membership excluding this node).", float64(alivePeers), node)
	pw.Gauge("mobiledl_cluster_members", "Known members including this node, alive or suspect.", float64(total), node)
	pw.Counter("mobiledl_cluster_forwards_total", "Predict requests proxied to a peer owner.", float64(n.forwards.Load()), node)
	pw.Counter("mobiledl_cluster_forward_errors_total", "Forward attempts that failed (transport error or retryable status).", float64(n.forwardErrors.Load()), node)
	pw.Counter("mobiledl_cluster_hop_rejects_total", "Requests rejected for exceeding the forwarding hop cap (routing loop broken).", float64(n.hopRejects.Load()), node)
	pw.Counter("mobiledl_cluster_shed_total", "Locally served predicts shed 429 by the node capacity gate.", float64(n.shed.Load()), node)
	pw.Counter("mobiledl_cluster_gossip_rounds_total", "Successful gossip exchanges initiated by this node.", float64(n.gossipRounds.Load()), node)
	pw.Counter("mobiledl_cluster_gossip_failures_total", "Failed gossip exchanges initiated by this node.", float64(n.gossipFails.Load()), node)
	if n.cfg.LocalRPS > 0 {
		pw.Gauge("mobiledl_cluster_load", "Local serving utilization against the configured LocalRPS capacity over the last gossip interval.", floatFromBits(n.loadGauge.Load()), node)
	}
	for _, row := range rows {
		pw.Gauge("mobiledl_cluster_peer_score",
			"Per-peer routing score in [0,1]: EWMA forward latency + error rate + gossip freshness; higher is better.",
			row.score, node, metrics.Label{Name: "peer", Value: row.id})
	}
}
