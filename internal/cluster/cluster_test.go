package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mobiledl/internal/leakcheck"
	"mobiledl/internal/metrics"
	"mobiledl/internal/trace"
	"mobiledl/internal/wire"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func staticInventory(models ...string) func() map[string]int {
	return func() map[string]int {
		inv := make(map[string]int, len(models))
		for _, m := range models {
			inv[m] = 1
		}
		return inv
	}
}

// capture is a race-safe string slot for values observed inside handler
// goroutines (the race detector does not see happens-before through the
// loopback socket).
type capture struct {
	mu sync.Mutex
	v  string
}

func (c *capture) set(v string) { c.mu.Lock(); c.v = v; c.mu.Unlock() }
func (c *capture) get() string  { c.mu.Lock(); defer c.mu.Unlock(); return c.v }

// testNode is one in-process cluster participant: a Node fronting a fake
// serving handler over a real listener, so forwards travel real HTTP.
type testNode struct {
	n    *Node
	ts   *httptest.Server
	addr string
}

// startTestNode builds a node whose AdvertiseAddr is the real bound port
// (listener first, then config — the same order cmd/mobiledlserve uses).
func startTestNode(t *testing.T, id string, inv func() map[string]int, local http.Handler, tweak func(*Config)) *testNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	cfg := Config{
		NodeID:         id,
		AdvertiseAddr:  ln.Addr().String(),
		GossipInterval: time.Minute, // tests drive gossip explicitly unless tweaked
		Inventory:      inv,
		Logger:         quietLogger(),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	if local == nil {
		local = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "no local handler", http.StatusNotFound)
		})
	}
	ts := httptest.NewUnstartedServer(n.Handler(local))
	_ = ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		n.Stop()
	})
	return &testNode{n: n, ts: ts, addr: ln.Addr().String()}
}

// fakeServe answers like the serving layer would: 200 with a model/version
// body, echoing which node ran it.
func fakeServe(nodeID string, version int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Model string `json:"model"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"model": req.Model, "version": version, "served_by": nodeID,
		})
	})
}

func predict(t *testing.T, addr, model string, hdr map[string]string) *http.Response {
	t.Helper()
	body := fmt.Sprintf(`{"model":%q,"features":[1,2,3]}`, model)
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("predict %s on %s: %v", model, addr, err)
	}
	return resp
}

// inject makes peer p a live member of n's view with the given inventory,
// without running gossip (tests control the topology exactly).
func inject(n *Node, id, addr string, models map[string]int) {
	n.merge([]wireState{{ID: id, Addr: addr, Heartbeat: 100, Models: models}})
}

// TestForwardToOwnerJoinsTrace: a predict for a model held only by a peer is
// proxied there, the client sees the peer's answer, and the whole path —
// client traceparent in, cluster.predict root, fwd.remote child with peer
// attrs, remote serve — is ONE trace.
func TestForwardToOwnerJoinsTrace(t *testing.T) {
	var remoteTP capture
	b := startTestNode(t, "node-b", staticInventory("m"),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			remoteTP.set(r.Header.Get("traceparent"))
			// Echo a response traceparent like the serving layer does, so the
			// forwarder can annotate the remote span id.
			w.Header().Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-aaaaaaaaaaaaaaaa-01")
			fakeServe("node-b", 1).ServeHTTP(w, r)
		}), nil)

	tr := trace.New(trace.Config{Sample: 1})
	a := startTestNode(t, "node-a", staticInventory(), nil, func(c *Config) {
		c.Tracer = tr
	})
	inject(a.n, "node-b", b.addr, map[string]int{"m": 1})

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	resp := predict(t, a.addr, "m", map[string]string{
		"traceparent": "00-" + traceID + "-00f067aa0ba902b7-01",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out["served_by"] != "node-b" {
		t.Fatalf("served_by = %v, want node-b", out["served_by"])
	}
	if got := resp.Header.Get(nodeHeader); got != "node-b" {
		t.Fatalf("%s = %q, want node-b", nodeHeader, got)
	}
	if got := resp.Header.Get(originHeader); got != "node-a" {
		t.Fatalf("%s = %q, want node-a", originHeader, got)
	}

	// The forwarded request carried the SAME trace id downstream.
	if id, _, sampled, ok := trace.ParseTraceparent(remoteTP.get()); !ok || id.String() != traceID || !sampled {
		t.Fatalf("peer saw traceparent %q, want sampled trace %s", remoteTP.get(), traceID)
	}
	// And the response advertises it back to the client.
	if id, _, _, ok := trace.ParseTraceparent(resp.Header.Get("traceparent")); !ok || id.String() != traceID {
		t.Fatalf("response traceparent %q, want trace %s", resp.Header.Get("traceparent"), traceID)
	}

	td := tr.Get(traceID)
	if td == nil {
		t.Fatalf("trace %s not retained on the entry node", traceID)
	}
	var root, fwd *trace.SpanData
	for i := range td.Spans {
		switch td.Spans[i].Name {
		case "cluster.predict":
			root = &td.Spans[i]
		case "fwd.remote":
			fwd = &td.Spans[i]
		}
	}
	if root == nil || fwd == nil {
		t.Fatalf("trace spans = %+v, want cluster.predict + fwd.remote", td.Spans)
	}
	if fwd.Parent != root.ID {
		t.Fatalf("fwd.remote parent = %d, want cluster.predict (%d)", fwd.Parent, root.ID)
	}
	if fwd.Attrs["peer"] != "node-b" || fwd.Attrs["peer_addr"] != b.addr {
		t.Fatalf("fwd.remote attrs = %v, want peer=node-b addr=%s", fwd.Attrs, b.addr)
	}
	if fwd.Attrs["remote_span"] != "aaaaaaaaaaaaaaaa" {
		t.Fatalf("fwd.remote remote_span = %v, want the peer's echoed span id", fwd.Attrs["remote_span"])
	}
}

// TestHopCapRejects: a request arriving over the hop cap is answered 502
// with a JSON error naming the cap, and counted.
func TestHopCapRejects(t *testing.T) {
	a := startTestNode(t, "node-a", staticInventory("m"), fakeServe("node-a", 1), nil)
	resp := predict(t, a.addr, "m", map[string]string{hopsHeader: "3"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("502 body missing error field (err=%v)", err)
	}
	if !strings.Contains(body.Error, "hop") {
		t.Fatalf("error %q does not mention the hop cap", body.Error)
	}
	if a.n.hopRejects.Load() != 1 {
		t.Fatalf("hopRejects = %d, want 1", a.n.hopRejects.Load())
	}
}

// TestHopCycleBreaks is the stale-ring regression: A believes only B holds
// the model, B believes only A does. The request must terminate with a 502
// after a bounded number of forwards, with the loop detected and counted at
// the node where the hop budget ran out — not ping-pong forever.
func TestHopCycleBreaks(t *testing.T) {
	serveNothing := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("request leaked through to a local handler that owns nothing")
	})
	a := startTestNode(t, "node-a", staticInventory(), serveNothing, nil)
	b := startTestNode(t, "node-b", staticInventory(), serveNothing, nil)
	// Mutually stale views: each thinks the OTHER holds "m".
	inject(a.n, "node-b", b.addr, map[string]int{"m": 1})
	inject(b.n, "node-a", a.addr, map[string]int{"m": 1})

	resp := predict(t, a.addr, "m", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("502 body missing error field (err=%v)", err)
	}
	rejects := a.n.hopRejects.Load() + b.n.hopRejects.Load()
	if rejects == 0 {
		t.Fatal("no hop rejection counted on either node — the loop was not detected")
	}
	// Total forwards across the pair must be bounded by the hop cap, not the
	// retry budget compounding per hop.
	if total := a.n.forwards.Load() + b.n.forwards.Load(); total > 4 {
		t.Fatalf("cycle generated %d forwards, want a small bounded number", total)
	}
}

// TestRoutesAroundUnreachablePeer: when the ring's first choice for a model
// does not answer, the forwarder retries the next replica and the request
// still succeeds; the failure lands in the dead peer's score.
func TestRoutesAroundUnreachablePeer(t *testing.T) {
	// Reserve an address that refuses connections: listen, grab the port,
	// close.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := dead.Addr().String()
	_ = dead.Close()

	// Pick peer ids so the UNREACHABLE one is the ring's first owner —
	// otherwise the retry path under test never runs.
	owners := buildRing([]string{"node-a", "peer-1", "peer-2"}, defaultVNodes).owners("m", 3)
	var firstPeer, secondPeer string
	for _, id := range owners {
		if id == "node-a" {
			continue
		}
		if firstPeer == "" {
			firstPeer = id
		} else {
			secondPeer = id
		}
	}

	live := startTestNode(t, secondPeer, staticInventory("m"), fakeServe(secondPeer, 1), nil)
	a := startTestNode(t, "node-a", staticInventory(), nil, func(cfg *Config) {
		cfg.Client = &http.Client{Timeout: 2 * time.Second}
	})
	inject(a.n, firstPeer, deadAddr, map[string]int{"m": 1})
	inject(a.n, secondPeer, live.addr, map[string]int{"m": 1})

	resp := predict(t, a.addr, "m", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via the second replica", resp.StatusCode)
	}
	if got := resp.Header.Get(nodeHeader); got != secondPeer {
		t.Fatalf("%s = %q, want %s", nodeHeader, got, secondPeer)
	}
	if a.n.forwardErrors.Load() == 0 {
		t.Fatal("dead-peer attempt not counted as a forward error")
	}
	// The failure must show up in the dead peer's score so future routing
	// demotes it below the healthy replica.
	now := time.Now()
	a.n.mu.Lock()
	deadScore := a.n.members[firstPeer].score.score(now, a.n.cfg.SuspectAfter)
	liveScore := a.n.members[secondPeer].score.score(now, a.n.cfg.SuspectAfter)
	a.n.mu.Unlock()
	if deadScore >= liveScore {
		t.Fatalf("dead peer score %.3f not below live peer score %.3f", deadScore, liveScore)
	}
}

// TestCapacityGateSheds: a solo node with a tiny LocalRPS admits its burst
// and sheds the rest 429 with Retry-After, counting them.
func TestCapacityGateSheds(t *testing.T) {
	a := startTestNode(t, "node-a", staticInventory("m"), fakeServe("node-a", 1), func(c *Config) {
		c.LocalRPS = 0.001 // burst floor (8) admits, refill is negligible
	})
	ok, shed := 0, 0
	for i := 0; i < 40; i++ {
		resp := predict(t, a.addr, "m", nil)
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d, want the burst admitted and the rest shed", ok, shed)
	}
	if ok > 10 {
		t.Fatalf("admitted %d requests, want roughly the burst floor (8)", ok)
	}
	if a.n.shed.Load() != uint64(shed) {
		t.Fatalf("shed counter = %d, want %d", a.n.shed.Load(), shed)
	}
}

// TestLocalOverflowSpillsToReplica: a node that holds the model but is out of
// capacity forwards to a replica instead of shedding.
func TestLocalOverflowSpillsToReplica(t *testing.T) {
	// Pick a model name node-a owns first on the ring, so the local-overflow
	// branch (not plain forwarding) is what runs.
	r := buildRing([]string{"node-a", "node-b"}, defaultVNodes)
	model := ""
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("spill-%d", i)
		if r.owner(name) == "node-a" {
			model = name
			break
		}
	}
	if model == "" {
		t.Fatal("no model name hashing to node-a in 100 tries")
	}

	b := startTestNode(t, "node-b", staticInventory(model), fakeServe("node-b", 1), nil)
	a := startTestNode(t, "node-a", staticInventory(model), fakeServe("node-a", 1), func(c *Config) {
		c.LocalRPS = 0.001
	})
	inject(a.n, "node-b", b.addr, map[string]int{model: 1})
	// Drain A's burst allowance.
	a.n.gate.mu.Lock()
	a.n.gate.tokens = 0
	a.n.gate.mu.Unlock()

	resp := predict(t, a.addr, model, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 spilled to the replica", resp.StatusCode)
	}
	if got := resp.Header.Get(nodeHeader); got != "node-b" {
		t.Fatalf("served by %q, want node-b (A was at capacity)", got)
	}
}

// TestStatusTransitions walks solo -> joining -> ok -> partitioned on real
// gossiping nodes.
func TestStatusTransitions(t *testing.T) {
	leakcheck.Check(t)
	solo := startTestNode(t, "solo", staticInventory("m"), fakeServe("solo", 1), nil)
	if got := solo.n.Status(); got != StatusSolo {
		t.Fatalf("no-peer node status = %q, want %q", got, StatusSolo)
	}

	b := startTestNode(t, "node-b", staticInventory("m2"), fakeServe("node-b", 1), func(c *Config) {
		c.GossipInterval = 25 * time.Millisecond
		c.SuspectAfter = 150 * time.Millisecond
	})
	a := startTestNode(t, "node-a", staticInventory("m1"), fakeServe("node-a", 1), func(c *Config) {
		c.Peers = []string{b.addr}
		c.GossipInterval = 25 * time.Millisecond
		c.SuspectAfter = 150 * time.Millisecond
	})
	if got := a.n.Status(); got != StatusJoining {
		t.Fatalf("pre-gossip status = %q, want %q", got, StatusJoining)
	}

	a.n.Start()
	b.n.Start()
	waitFor(t, 2*time.Second, func() bool {
		return a.n.Status() == StatusOK && b.n.Status() == StatusOK
	}, "both nodes reaching status ok")

	// Inventory converged: A can route m2 to B.
	waitFor(t, 2*time.Second, func() bool {
		cands := a.n.candidates("m2", time.Now())
		return len(cands) == 1 && cands[0].ID == "node-b"
	}, "A learning B's inventory")

	// Kill B; A's view of it goes stale past SuspectAfter -> partitioned.
	b.ts.Close()
	b.n.Stop()
	waitFor(t, 2*time.Second, func() bool {
		return a.n.Status() == StatusPartitioned
	}, "A detecting the dead peer")
	// And the dead peer drops out of routing.
	if cands := a.n.candidates("m2", time.Now()); len(cands) != 0 {
		t.Fatalf("dead peer still routed: %v", cands[0].ID)
	}
}

// TestThreeNodeConvergenceAndFailover: three real nodes with chained seeds
// (c -> b -> a) converge to full membership; every model is then servable
// from any entry node; killing one node keeps every model that has a
// surviving replica servable.
func TestThreeNodeConvergenceAndFailover(t *testing.T) {
	tweak := func(peers ...string) func(*Config) {
		return func(c *Config) {
			c.Peers = peers
			c.GossipInterval = 25 * time.Millisecond
			c.SuspectAfter = 150 * time.Millisecond
			c.Client = &http.Client{Timeout: 2 * time.Second}
		}
	}
	// Replication factor 2: every model lives on two nodes.
	a := startTestNode(t, "node-a", staticInventory("alpha", "beta"), fakeServe("node-a", 1), tweak())
	b := startTestNode(t, "node-b", staticInventory("beta", "gamma"), fakeServe("node-b", 1), tweak(a.addr))
	c := startTestNode(t, "node-c", staticInventory("gamma", "alpha"), fakeServe("node-c", 1), tweak(b.addr))
	nodes := []*testNode{a, b, c}
	for _, n := range nodes {
		n.n.Start()
	}
	waitFor(t, 3*time.Second, func() bool {
		for _, n := range nodes {
			n.n.mu.Lock()
			members := len(n.n.members)
			n.n.mu.Unlock()
			if members != 3 || n.n.Status() != StatusOK {
				return false
			}
		}
		return true
	}, "3-node membership convergence")

	models := []string{"alpha", "beta", "gamma"}
	for _, entry := range nodes {
		for _, m := range models {
			resp := predict(t, entry.addr, m, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("model %s via %s: status %d", m, entry.n.cfg.NodeID, resp.StatusCode)
			}
			resp.Body.Close()
		}
	}

	// Kill node-b. alpha/beta/gamma all survive on {a, c}.
	b.ts.Close()
	b.n.Stop()
	waitFor(t, 2*time.Second, func() bool {
		for _, n := range []*testNode{a, c} {
			for _, m := range models {
				ok := false
				for _, cand := range n.n.candidates(m, time.Now()) {
					if cand.ID != "node-b" {
						ok = true
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}, "routing tables dropping the dead node")
	for _, entry := range []*testNode{a, c} {
		for _, m := range models {
			resp := predict(t, entry.addr, m, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("after failover, model %s via %s: status %d", m, entry.n.cfg.NodeID, resp.StatusCode)
			}
			if served := resp.Header.Get(nodeHeader); served == "node-b" {
				t.Fatalf("dead node reported as server for %s", m)
			}
			resp.Body.Close()
		}
	}
}

// TestStateEndpoint: /v1/cluster/state exposes membership and per-model
// routes.
func TestStateEndpoint(t *testing.T) {
	b := startTestNode(t, "node-b", staticInventory("m"), fakeServe("node-b", 1), nil)
	a := startTestNode(t, "node-a", staticInventory("local"), fakeServe("node-a", 1), nil)
	inject(a.n, "node-b", b.addr, map[string]int{"m": 2})

	resp, err := http.Get("http://" + a.addr + "/v1/cluster/state")
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	defer resp.Body.Close()
	var sv StateView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatalf("decode state: %v", err)
	}
	if sv.NodeID != "node-a" || len(sv.Members) != 2 {
		t.Fatalf("state = %+v, want node-a with 2 members", sv)
	}
	if route := sv.Routes["m"]; len(route) != 1 || route[0] != "node-b" {
		t.Fatalf("route for m = %v, want [node-b]", route)
	}
	if route := sv.Routes["local"]; len(route) != 1 || route[0] != "node-a" {
		t.Fatalf("route for local = %v, want [node-a]", route)
	}
}

// TestWriteMetrics asserts the satellite-specified metric families render.
func TestWriteMetrics(t *testing.T) {
	a := startTestNode(t, "node-a", staticInventory("m"), fakeServe("node-a", 1), func(c *Config) {
		c.LocalRPS = 100
	})
	inject(a.n, "node-b", "127.0.0.1:1", map[string]int{"m": 1})
	a.n.forwards.Add(3)
	a.n.forwardErrors.Add(1)

	var buf bytes.Buffer
	pw := metrics.NewPromWriter(&buf)
	a.n.WriteMetrics(pw)
	if err := pw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`mobiledl_cluster_peers{node="node-a"} 1`,
		`mobiledl_cluster_forwards_total{node="node-a"} 3`,
		`mobiledl_cluster_forward_errors_total{node="node-a"} 1`,
		`mobiledl_cluster_hop_rejects_total{node="node-a"} 0`,
		`mobiledl_cluster_peer_score{node="node-a",peer="node-b"}`,
		`mobiledl_cluster_load{node="node-a"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
}

// TestMalformedHopsHeader: garbage in the hop header is a 400, not a panic
// or a forward.
func TestMalformedHopsHeader(t *testing.T) {
	a := startTestNode(t, "node-a", staticInventory("m"), fakeServe("node-a", 1), nil)
	resp := predict(t, a.addr, "m", map[string]string{hopsHeader: "banana"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestUnroutableBodyPassesThrough: a body the codec finds no model in —
// none sent, not a string, or not a request at all — and a model no node
// claims all go to the local serving layer, byte for byte, so that its 4xx
// wording is authoritative.
func TestUnroutableBodyPassesThrough(t *testing.T) {
	var gotBody capture
	a := startTestNode(t, "node-a", staticInventory("m"),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			gotBody.set(string(body))
			http.Error(w, "serve says no", http.StatusTeapot)
		}), nil)
	inject(a.n, "node-b", "127.0.0.1:1", map[string]int{"m": 1})

	for _, body := range []string{
		`{"features":[1,2,3]}`,
		`{"model":null,"features":[[1]]}`,
		`{"model":7}`,
		`{"model":"m","features":[[1,2`,
		`{"model":"m"} trailing`,
		`not json at all`,
		``,
		`{"model":"ghost","features":[[1]]}`,
	} {
		resp, err := http.Post("http://"+a.addr+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("predict: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTeapot {
			t.Errorf("%q: status = %d, want the local handler's", body, resp.StatusCode)
		}
		if gotBody.get() != body {
			t.Errorf("local handler got body %q, want the re-buffered original %q", gotBody.get(), body)
		}
	}
	if got := a.n.forwards.Load(); got != 0 {
		t.Errorf("%d forwards, want none", got)
	}
}

// TestOversizedBodyIs400: the router holds a body to the codec's limit — the
// one the serving layer enforces — and answers what serve would, without
// forwarding or serving it.
func TestOversizedBodyIs400(t *testing.T) {
	a := startTestNode(t, "node-a", staticInventory(),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t.Error("oversized body reached the local handler")
		}), nil)
	b := startTestNode(t, "node-b", staticInventory("m"), fakeServe("node-b", 1), nil)
	inject(a.n, "node-b", b.addr, map[string]int{"m": 1})

	fits := `{"model":"m","features":[[` + strings.Repeat("1,", (wire.MaxBodyBytes-64)/2) + `1]]}`
	resp, err := http.Post("http://"+a.addr+"/v1/predict", "application/json", strings.NewReader(fits))
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || a.n.forwards.Load() != 1 {
		t.Fatalf("%d-byte body: status %d after %d forwards, want it forwarded", len(fits), resp.StatusCode, a.n.forwards.Load())
	}

	for _, chunked := range []bool{false, true} {
		var body io.Reader = strings.NewReader(fits + strings.Repeat(" ", wire.MaxBodyBytes))
		if chunked {
			body = io.MultiReader(body) // hides the length: no Content-Length to refuse up front
		}
		resp, err := http.Post("http://"+a.addr+"/v1/predict", "application/json", body)
		if err != nil {
			t.Fatalf("predict: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("oversized body (chunked %v): status = %d, want 400", chunked, resp.StatusCode)
		}
	}
	if got := a.n.forwards.Load(); got != 1 {
		t.Errorf("%d forwards, want only the body that fit", got)
	}
}

// TestRestartedNodeRejoins: a rebooted peer comes back with its heartbeat
// reset to 1 but a higher incarnation; merge must accept its fresh state
// immediately instead of waiting for the new counter to outrun the old
// uptime — and stale gossip about the old incarnation must not resurrect it.
func TestRestartedNodeRejoins(t *testing.T) {
	a := startTestNode(t, "node-a", staticInventory(), nil, nil)
	// Long-lived first incarnation of node-b.
	a.n.merge([]wireState{{ID: "node-b", Addr: "127.0.0.1:1", Gen: 50, Heartbeat: 100000, Models: map[string]int{"old": 1}}})
	// Reboot: incarnation up, heartbeat restarted, new addr and inventory.
	a.n.merge([]wireState{{ID: "node-b", Addr: "127.0.0.1:2", Gen: 51, Heartbeat: 1, Models: map[string]int{"new": 2}}})
	a.n.mu.Lock()
	m := a.n.members["node-b"]
	addr, hb, models := m.Addr, m.Heartbeat, m.Models
	a.n.mu.Unlock()
	if addr != "127.0.0.1:2" || hb != 1 || models["new"] != 2 {
		t.Fatalf("restarted peer not accepted: addr=%s heartbeat=%d models=%v", addr, hb, models)
	}
	// Third-hand gossip still carrying the dead incarnation loses.
	a.n.merge([]wireState{{ID: "node-b", Addr: "127.0.0.1:1", Gen: 50, Heartbeat: 100001, Models: map[string]int{"old": 1}}})
	a.n.mu.Lock()
	addr = a.n.members["node-b"].Addr
	a.n.mu.Unlock()
	if addr != "127.0.0.1:2" {
		t.Fatalf("stale incarnation overwrote the restarted peer: addr=%s", addr)
	}
}

// TestRestartedNodeRejoinsOverGossip drives the same scenario through real
// gossip: node-b restarts as a fresh process (same id, new port, heartbeat
// back at 1) and node-a must route to the new instance promptly, not after
// the new heartbeat outruns the old one.
func TestRestartedNodeRejoinsOverGossip(t *testing.T) {
	leakcheck.Check(t)
	a := startTestNode(t, "node-a", staticInventory("m1"), fakeServe("node-a", 1), func(c *Config) {
		c.GossipInterval = 25 * time.Millisecond
		c.SuspectAfter = 150 * time.Millisecond
	})
	tweakB := func(c *Config) {
		c.Peers = []string{a.addr}
		c.GossipInterval = 25 * time.Millisecond
		c.SuspectAfter = 150 * time.Millisecond
	}
	b1 := startTestNode(t, "node-b", staticInventory("m2"), fakeServe("node-b", 1), tweakB)
	// Fake a long uptime so the old heartbeat dwarfs anything a fresh boot
	// reaches during the test.
	b1.n.mu.Lock()
	b1.n.members["node-b"].Heartbeat = 1_000_000
	b1.n.mu.Unlock()
	a.n.Start()
	b1.n.Start()
	waitFor(t, 2*time.Second, func() bool {
		cands := a.n.candidates("m2", time.Now())
		return len(cands) == 1 && cands[0].Addr == b1.addr
	}, "A learning the first incarnation of B")

	b1.ts.Close()
	b1.n.Stop()
	b2 := startTestNode(t, "node-b", staticInventory("m2"), fakeServe("node-b", 2), tweakB)
	b2.n.Start()
	waitFor(t, 2*time.Second, func() bool {
		cands := a.n.candidates("m2", time.Now())
		return len(cands) == 1 && cands[0].Addr == b2.addr
	}, "A accepting the restarted incarnation of B")
}

// TestGossipTickSurvivesBlackholedPeer: one peer that accepts connections
// but never answers must not stall the tick past the per-exchange deadline
// or starve the exchange with the healthy peer.
func TestGossipTickSurvivesBlackholedPeer(t *testing.T) {
	hang, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = hang.Close() })

	healthy := startTestNode(t, "node-h", staticInventory("m"), fakeServe("node-h", 1), nil)
	a := startTestNode(t, "node-a", staticInventory(), nil, func(c *Config) {
		c.GossipInterval = 50 * time.Millisecond
	})
	inject(a.n, "node-dead", hang.Addr().String(), nil)
	inject(a.n, "node-h", healthy.addr, nil)

	start := time.Now()
	a.n.gossipOnce()
	if el := time.Since(start); el > time.Second {
		t.Fatalf("gossip tick took %v with a blackholed peer, want ~one GossipInterval", el)
	}
	if a.n.gossipRounds.Load() == 0 {
		t.Fatal("no successful exchange — the blackholed peer starved the healthy one")
	}
	if a.n.gossipFails.Load() == 0 {
		t.Fatal("the blackholed exchange did not fail — its deadline never fired")
	}
}

// TestPickTargetsCapsFanout: once every seed is a member, one tick dials at
// most gossipFanout peers, not all of them.
func TestPickTargetsCapsFanout(t *testing.T) {
	seeds := []string{"127.0.0.1:11", "127.0.0.1:12", "127.0.0.1:13", "127.0.0.1:14"}
	a := startTestNode(t, "node-a", staticInventory(), nil, func(c *Config) {
		c.Peers = seeds
	})
	for i, seed := range seeds {
		inject(a.n, fmt.Sprintf("peer-%d", i), seed, nil)
	}
	if targets := a.n.pickTargets(); len(targets) > gossipFanout {
		t.Fatalf("pickTargets dialed %d peers %v, want at most the fanout of %d", len(targets), targets, gossipFanout)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
