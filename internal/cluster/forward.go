package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mobiledl/internal/trace"
	"mobiledl/internal/wire"
)

// Forwarding headers. Hops counts how many times a request has been proxied
// (absent = 0); Origin and Node are diagnostics: which node first forwarded
// the request, and which node finally served it.
const (
	hopsHeader   = "X-MobileDL-Hops"
	originHeader = "X-MobileDL-Origin"
	nodeHeader   = "X-MobileDL-Node"
)

// maxForwardAttempts bounds retries: at most this many peers are tried per
// request before the forwarder gives up (a local fallback may still apply).
const maxForwardAttempts = 2

// maxHops caps forwarding chain length: a request arriving with more than
// maxHops recorded hops, or needing to exceed it, is answered 502.
const maxHops = 2

// Handler wraps the serving mux with the cluster's routing layer: it mounts
// the gossip and state endpoints and intercepts POST /v1/predict — requests
// for models owned elsewhere are proxied to the owner, everything else
// passes through (with the node capacity gate applied to locally served
// predicts).
func (n *Node) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cluster/gossip", n.handleGossip)
	mux.HandleFunc("/v1/cluster/state", n.handleState)
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		n.routePredict(w, r, next)
	})
	mux.Handle("/", next)
	return mux
}

// admit passes one locally served predict through the capacity gate.
func (n *Node) admit() bool {
	if n.gate != nil && !n.gate.allow() {
		return false
	}
	n.localAdmits.Add(1)
	return true
}

// serveLocal hands the (possibly re-buffered) request to the serving layer.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte, next http.Handler) {
	if body != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}
	w.Header().Set(nodeHeader, n.cfg.NodeID)
	next.ServeHTTP(w, r)
}

// shed429 answers a capacity-gated rejection the same way the batcher's
// overload path does, so clients need one backoff strategy.
func (n *Node) shed429(w http.ResponseWriter) {
	n.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	clusterError(w, http.StatusTooManyRequests,
		fmt.Errorf("node %s at capacity (cluster gate)", n.cfg.NodeID))
}

// routePredict decides where one /v1/predict runs. The decision walks the
// model's candidate list (alive ring-ordered holders, score-bucketed):
// self serves locally through the capacity gate, peers are tried with
// bounded retries, and the hop cap breaks routing cycles a stale ring could
// otherwise loop forever.
func (n *Node) routePredict(w http.ResponseWriter, r *http.Request, next http.Handler) {
	if r.Method != http.MethodPost {
		next.ServeHTTP(w, r) // serve's handler owns the 405 wording
		return
	}
	hops := 0
	if h := r.Header.Get(hopsHeader); h != "" {
		v, err := strconv.Atoi(h)
		if err != nil || v < 0 {
			clusterError(w, http.StatusBadRequest, fmt.Errorf("bad %s header %q", hopsHeader, h))
			return
		}
		hops = v
	}
	if hops > maxHops {
		n.hopRejects.Add(1)
		clusterError(w, http.StatusBadGateway,
			fmt.Errorf("forwarding loop: request exceeded the %d-hop cluster cap", maxHops))
		return
	}
	if n.solo() {
		if !n.admit() {
			n.shed429(w)
			return
		}
		n.serveLocal(w, r, nil, next)
		return
	}

	// Read once into a buffer of its own (a forward can outlive this call, so
	// it is never recycled); the codec's scan finds the model, converting nothing.
	body, err := wire.ReadBody(r.Body, r.ContentLength, nil)
	if err != nil {
		clusterError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	model := wire.Model(body)
	if model == "" {
		// Malformed or model-less body: the serving layer owns that 4xx.
		if !n.admit() {
			n.shed429(w)
			return
		}
		n.serveLocal(w, r, body, next)
		return
	}

	now := time.Now()
	cands := n.candidates(model, now)
	if len(cands) == 0 {
		// Nobody in the cluster claims the model; serve locally so the
		// registry's 404 (or a just-installed model gossip hasn't spread
		// yet) answers.
		if !n.admit() {
			n.shed429(w)
			return
		}
		n.serveLocal(w, r, body, next)
		return
	}

	var sp trace.Span
	spStarted := false
	startSpan := func() trace.Span {
		if !spStarted {
			sp = n.forwardSpan(r, model, hops)
			spStarted = true
			if sp.Active() {
				w.Header().Set("traceparent", sp.Traceparent())
			}
		}
		return sp
	}

	localShed := false
	sawPeer := false
	attempts := 0
	for _, c := range cands {
		if c.ID == n.cfg.NodeID {
			if n.admit() {
				if spStarted && sp.Active() {
					// Reached after a failed forward attempt: hand the serving
					// layer our trace identity so its spans join this trace.
					r.Header.Set("traceparent", sp.Traceparent())
					sp.End(trace.Str("served_by", "local"))
				}
				n.serveLocal(w, r, body, next)
				return
			}
			// Local capacity exhausted: overflow to the remaining replicas
			// instead of shedding outright.
			localShed = true
			continue
		}
		sawPeer = true
		if hops >= maxHops || attempts >= maxForwardAttempts {
			continue
		}
		attempts++
		if n.forwardTo(w, r, body, c, hops, startSpan()) {
			sp.End()
			return
		}
	}

	switch {
	case localShed:
		if spStarted {
			sp.EndErr(errors.New("local capacity shed"))
		}
		n.shed429(w)
	case sawPeer && hops >= maxHops:
		// Every holder is remote and the hop budget is spent: a stale ring
		// has routed the request in a circle. Break the loop.
		n.hopRejects.Add(1)
		err := fmt.Errorf("forwarding loop: model %q not local after %d hops (stale ring?)", model, hops)
		if spStarted {
			sp.EndErr(err)
		}
		clusterError(w, http.StatusBadGateway, err)
	default:
		err := fmt.Errorf("no reachable owner for model %q (%d forward attempts failed)", model, attempts)
		if spStarted {
			sp.EndErr(err)
		}
		clusterError(w, http.StatusBadGateway, err)
	}
}

// solo reports whether this node is routing for itself only.
func (n *Node) solo() bool {
	if len(n.cfg.Peers) > 0 {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.members) == 1
}

// forwardSpan opens the trace for a forwarded predict: an inbound sampled
// traceparent joins the caller's trace (so client -> entry node -> owner is
// ONE trace), otherwise the tracer head-samples.
func (n *Node) forwardSpan(r *http.Request, model string, hops int) trace.Span {
	t := n.cfg.Tracer
	if t == nil {
		return trace.Span{}
	}
	attrs := []trace.Attr{
		trace.Str("model", model),
		trace.Str("node_id", n.cfg.NodeID),
		trace.Num("hops_in", float64(hops)),
	}
	if id, parent, sampled, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		if !sampled {
			return trace.Span{}
		}
		return t.StartRemote("cluster.predict", id, parent, attrs...)
	}
	if !t.Sample() {
		return trace.Span{}
	}
	return t.Start("cluster.predict", attrs...)
}

// forwardTo proxies the request to one peer. Returns true when a response
// was written (success or a non-retryable client fault); false means the
// attempt failed and the caller may try the next candidate. Each attempt is
// a fwd.remote child span carrying the peer identity, and the remote node's
// root span id (echoed in its response traceparent) is annotated back so the
// cross-node trace joins up.
func (n *Node) forwardTo(w http.ResponseWriter, r *http.Request, body []byte, peer candidate, hops int, sp trace.Span) bool {
	n.forwards.Add(1)
	child := sp.Child("fwd.remote",
		trace.Str("peer", peer.ID),
		trace.Str("peer_addr", peer.Addr),
		trace.Num("hop", float64(hops+1)))
	start := time.Now()

	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		"http://"+peer.Addr+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		child.EndErr(err)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hopsHeader, strconv.Itoa(hops+1))
	req.Header.Set(originHeader, n.cfg.NodeID)
	// Propagate trace identity: our span when tracing, else the caller's
	// inbound header verbatim so an untraced hop still joins end to end.
	if child.Active() {
		req.Header.Set("traceparent", child.Traceparent())
	} else if tp := r.Header.Get("traceparent"); tp != "" {
		req.Header.Set("traceparent", tp)
	}

	resp, err := n.cfg.Client.Do(req)
	lat := time.Since(start)
	if err != nil {
		peer.score.observe(lat, true)
		n.forwardErrors.Add(1)
		n.cfg.Logger.Warn("cluster forward failed",
			"node", n.cfg.NodeID, "peer", peer.ID, "addr", peer.Addr, "err", err)
		child.EndErr(err)
		return false
	}
	defer resp.Body.Close()
	if retryableStatus(resp.StatusCode) {
		peer.score.observe(lat, true)
		n.forwardErrors.Add(1)
		child.EndErr(fmt.Errorf("peer %s answered %d", peer.ID, resp.StatusCode),
			trace.Num("status", float64(resp.StatusCode)))
		return false
	}
	peer.score.observe(lat, false)
	if remoteID, remoteRoot, _, ok := trace.ParseTraceparent(resp.Header.Get("traceparent")); ok {
		child.Annotate(trace.Str("remote_span", remoteRoot.String()),
			trace.Str("remote_trace", remoteID.String()))
	}
	for _, h := range []string{"Content-Type", "Retry-After", nodeHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(originHeader, n.cfg.NodeID)
	w.WriteHeader(resp.StatusCode)
	_, cpErr := io.Copy(w, resp.Body)
	child.EndErr(cpErr, trace.Num("status", float64(resp.StatusCode)))
	return true
}

// retryableStatus reports whether a peer's answer means "try the next
// replica": the peer is overloaded, mid-drain, timed out, or its inventory
// was stale (404). Client faults (400/413) and model answers pass through.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusNotFound, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// tokenBucket is the node capacity gate: LocalRPS sustained, with a small
// burst so batched client arrivals are not shed spuriously.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64) *tokenBucket {
	burst := rate / 4
	if burst < 8 {
		burst = 8
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

func (tb *tokenBucket) allow() bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := time.Now()
	tb.tokens = math.Min(tb.burst, tb.tokens+now.Sub(tb.last).Seconds()*tb.rate)
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
