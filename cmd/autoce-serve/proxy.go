package main

// The fleet proxy: forwarding with fault tolerance. Where shard.go
// decides *who* can answer a request (shardRoute, forward's only
// caller), this file gets it there and back. Each mechanism names the
// gate that fails without it:
//
//   - A circuit breaker per peer, the one health signal: a crashed shard
//     costs one failure window, not a timeout per request, and after the
//     cooldown the next read it is offered is its half-open probe.
//     TestServeBreakerReadmitsPrimaryOnLiveRead, TestServePeerForwardFailpoint.
//   - Failover: a read tries each replica-set member once, ready peers
//     first, with no backoff: no unit test or drill needs more.
//     TestServeReadFailover fails if a read tries only one member, and
//     TestServeReadTriesEachMemberOnce if it tries one twice.
//   - The 404 rule: a 404 is final only when every replica-set member
//     answered it, else the read answers 502 (a member may just have
//     missed the onboarding fan-out). TestServeLaggingReplicaReadIsUnavailable.
//   - Fan-out retry (replicate), the one use of resilience.Retry: without
//     it, shard-chaos's restarted shard misses tenants and answers 404.
//
// Writes are forwarded to the primary exactly once, never replayed: a
// replayed /train would double-spend the training budget, a replayed
// /datasets could resurrect a replaced dataset. A forward that exhausts
// every option answers a JSON 502 naming the last upstream failure.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/resilience"
)

// headerReplicate marks a primary's onboarding fan-out to the rest of the
// dataset's replica set; replica-set members accept it in place of
// primary ownership (shard.go) and never forward or re-replicate it.
const headerReplicate = "X-Shard-Replicate"

// peerSet is this shard's view of the rest of the fleet: one breaker per
// peer.
type peerSet struct {
	sh     *sharder
	client *http.Client
	// opts supplies the forward deadlines: PeerTimeout bounds each read
	// attempt, and write forwards use the target endpoint's own deadline
	// (a /train legitimately runs minutes).
	opts     serveOptions
	breakers []*resilience.Breaker
}

// newPeerSet wires the fault-tolerance state for a sharder running in
// proxy mode (sh.peers non-nil).
func newPeerSet(sh *sharder, opts serveOptions) *peerSet {
	ps := &peerSet{
		sh:     sh,
		client: &http.Client{},
		opts:   opts,
	}
	for i := 0; i < sh.count; i++ {
		ps.breakers = append(ps.breakers, resilience.NewBreaker(resilience.BreakerConfig{}))
	}
	return ps
}

// peerResponse is a fully-drained upstream response — body in memory, so
// the attempt's context can be cancelled as soon as do returns.
type peerResponse struct {
	status int
	header http.Header
	body   []byte
}

func (pr *peerResponse) write(w http.ResponseWriter) {
	for k, vs := range pr.header {
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Content-Length":
			continue // hop-by-hop / recomputed
		}
		w.Header()[k] = vs
	}
	w.WriteHeader(pr.status)
	w.Write(pr.body)
}

// do performs one forward attempt to peer, recording the outcome in its
// breaker. The inbound request is never touched: the outbound request is
// built fresh with a cloned header set, per the ReverseProxy contract
// this layer replaces — mutating r would corrupt the caller's view and
// every later attempt's.
func (ps *peerSet) do(ctx context.Context, peer int, r *http.Request, body []byte) (*peerResponse, error) {
	b := ps.breakers[peer]
	if !b.Allow() {
		// Fail fast without recording: refusal is the breaker's own doing,
		// not new evidence about the peer.
		return nil, fmt.Errorf("shard %d: circuit breaker open", peer)
	}
	// Failpoint "serve.peer.forward": error mode simulates the peer down
	// (connection refused), sleep mode a slow peer. Recorded as a breaker
	// failure like the real thing, so chaos runs exercise the trip/recover
	// cycle.
	if err := resilience.Failpoint("serve.peer.forward"); err != nil {
		b.Record(err)
		return nil, err
	}
	u := ps.sh.peers[peer].ResolveReference(&url.URL{Path: r.URL.Path, RawQuery: r.URL.RawQuery})
	req, err := http.NewRequestWithContext(ctx, r.Method, u.String(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	req.Header.Set("X-Shard-Forwarded", strconv.Itoa(ps.sh.index))
	resp, err := ps.client.Do(req)
	if err != nil {
		b.Record(err)
		return nil, err
	}
	defer resp.Body.Close()
	out := &peerResponse{status: resp.StatusCode, header: resp.Header.Clone()}
	out.body, err = io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		b.Record(err)
		return nil, err
	}
	// Any complete HTTP response — even a 4xx/5xx — is evidence the peer is
	// alive; the breaker tracks reachability, not application outcomes.
	b.Record(nil)
	return out, nil
}

// orderTargets sorts key's candidate shards: peers whose breaker would
// admit a request now first, in replica-set order, then the rest
// (fail-open — with every breaker refusing, trying them costs nothing
// and beats a guaranteed 502), self excluded. Ranking by Ready rather
// than State matters once a breaker's cooldown has elapsed: it still
// reads open, but it ranks ready, so the next read carries its probe.
func (ps *peerSet) orderTargets(cands []int) []int {
	ready := make([]int, 0, len(cands))
	var refused []int
	for _, p := range cands {
		if p == ps.sh.index {
			continue
		}
		if ps.breakers[p].Ready() {
			ready = append(ready, p)
		} else {
			refused = append(refused, p)
		}
	}
	return append(ready, refused...)
}

// forward proxies r to the fleet: a request whose dataset key this shard
// cannot answer, or a keyed read for a tenant this replica-set member has
// not published (shard.go). Writes go to the primary exactly once. Reads
// try each member of key's replica set once, ready peers first, with no
// backoff; a member's 404 moves the read on to the next member, and it is
// the answer only once every other member has answered 404 too —
// otherwise the read ends in the JSON 502.
func (ps *peerSet) forward(w http.ResponseWriter, r *http.Request, key string, read bool) {
	body, err := readBody(w, r, nil)
	if !decodeOK(w, err) {
		return
	}
	if !read {
		timeout := ps.opts.OnboardDeadline
		if r.URL.Path == "/train" {
			timeout = ps.opts.TrainDeadline
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		pr, err := ps.do(ctx, ps.sh.shardOf(key), r, body)
		if err != nil {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("forwarding to primary of %q: %v", key, err))
			return
		}
		pr.write(w)
		return
	}
	// Never empty: shardRoute forwards a read only when key's replica set
	// holds a member other than this shard.
	targets := ps.orderTargets(ps.sh.replicasOf(key))
	var last error
	notFound := 0
	for _, peer := range targets {
		ctx, cancel := context.WithTimeout(r.Context(), ps.opts.PeerTimeout)
		pr, err := ps.do(ctx, peer, r, body)
		cancel()
		switch {
		case err != nil:
			last = err
		case pr.status != http.StatusNotFound:
			pr.write(w)
			return
		default:
			if notFound++; notFound == len(targets) {
				pr.write(w)
				return
			}
			last = fmt.Errorf("shard %d: %s", peer, bytes.TrimSpace(pr.body))
		}
		if r.Context().Err() != nil {
			break // the client is gone: charge no further peer's breaker
		}
	}
	writeError(w, http.StatusBadGateway, fmt.Sprintf("forwarding %q: all replicas failed: %v", key, last))
}

// replicate fans a successful local onboarding out to one replica-set
// member: the same body, marked X-Shard-Replicate so the member accepts
// it without primary ownership. Unlike client writes, this fan-out is
// retried — re-onboarding an identical payload is idempotent, and the
// common failure is the replica's heavy admission class shedding under
// an onboarding burst (503), which backoff rides out. Still best-effort
// after the budget: the caller logs the failure, and keyed reads that
// reach the lagging replica forward to the rest of the replica set
// (shard.go) rather than answering its 404.
func (ps *peerSet) replicate(ctx context.Context, peer int, key string, body []byte) error {
	return resilience.Retry{}.Do(ctx, func(int) error {
		cctx, cancel := context.WithTimeout(ctx, ps.opts.OnboardDeadline)
		defer cancel()
		r, err := http.NewRequestWithContext(cctx, http.MethodPost, "/datasets", bytes.NewReader(body))
		if err != nil {
			return err
		}
		r.Header.Set("Content-Type", "application/json")
		r.Header.Set("X-Shard-Key", key)
		r.Header.Set(headerReplicate, "1")
		pr, err := ps.do(cctx, peer, r, body)
		if err != nil {
			return err
		}
		if pr.status != http.StatusOK {
			return fmt.Errorf("replica answered %d: %s", pr.status, bytes.TrimSpace(pr.body))
		}
		return nil
	})
}

// peerHealthInfo is one row of the /healthz fleet table, read from the
// peer's breaker.
type peerHealthInfo struct {
	URL        string `json:"url"`
	Self       bool   `json:"self,omitempty"`
	Breaker    string `json:"breaker"`
	ConsecFail int    `json:"consec_fail,omitempty"`
	LastErr    string `json:"last_err,omitempty"`
}

// healthTable summarizes the fleet for /healthz: one row per peer with
// its breaker's state, consecutive failures and last error.
func (ps *peerSet) healthTable() map[string]any {
	peers := make([]peerHealthInfo, ps.sh.count)
	for i := range peers {
		state, consec, lastErr := ps.breakers[i].Snapshot()
		peers[i] = peerHealthInfo{
			URL:        ps.sh.peers[i].String(),
			Self:       i == ps.sh.index,
			Breaker:    state.String(),
			ConsecFail: consec,
			LastErr:    lastErr,
		}
	}
	return map[string]any{"peers": peers}
}
