package main

// The fleet proxy: forwarding with fault tolerance. Where shard.go
// decides *who* can answer a request, this file gets it there and back —
// per-peer circuit breakers so a crashed shard costs one failure window
// instead of a timeout per request, a background health prober feeding
// failover, bounded retries with decorrelated-jitter backoff for
// idempotent reads, and optional hedged /estimate forwards fired after a
// latency-histogram-informed delay with first-response-wins cancellation.
//
// Reads (/estimate, /recommend, /drift, GETs) retry across the dataset's
// replica set, healthiest peer first. Writes (/datasets, /train, /adapt)
// are forwarded to the primary exactly once and never replayed — a
// replayed /train would double-spend the training budget, a replayed
// /datasets could resurrect a replaced dataset. Forwards that exhaust
// every option answer a JSON 502 naming the last upstream failure.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/latency"
	"repro/internal/resilience"
)

// headerReplicate marks a primary's onboarding fan-out to the rest of the
// dataset's replica set; replica-set members accept it in place of
// primary ownership (shard.go) and never forward or re-replicate it.
const headerReplicate = "X-Shard-Replicate"

// peerSet is this shard's view of the rest of the fleet: one breaker per
// peer, one shared prober, the retry/hedge policy, and the latency
// history the hedge delay is derived from.
type peerSet struct {
	sh     *sharder
	client *http.Client
	// readTimeout bounds each forwarded read attempt; write forwards use
	// the target endpoint's own deadline (a /train legitimately runs
	// minutes).
	readTimeout  time.Duration
	trainTimeout time.Duration
	writeTimeout time.Duration
	retry        resilience.Retry
	breakers     []*resilience.Breaker
	prober       *resilience.Prober
	hedge        bool

	// hist records successful forward latencies; the hedge fires at its
	// p90 (histMu because Histogram is not concurrency-safe).
	histMu sync.Mutex
	hist   latency.Histogram
}

// newPeerSet wires the fault-tolerance state for a sharder running in
// proxy mode (sh.peers non-nil). The prober is constructed but not
// started; main runs it (tests drive Step directly).
func newPeerSet(sh *sharder, opts serveOptions) *peerSet {
	ps := &peerSet{
		sh:           sh,
		client:       &http.Client{},
		readTimeout:  opts.PeerTimeout,
		trainTimeout: opts.TrainDeadline,
		writeTimeout: opts.OnboardDeadline,
		retry:        resilience.Retry{Attempts: 3, Base: 25 * time.Millisecond, Cap: time.Second},
		hedge:        !opts.NoHedge,
	}
	for i := 0; i < sh.count; i++ {
		ps.breakers = append(ps.breakers, resilience.NewBreaker(resilience.BreakerConfig{}))
	}
	ps.prober = resilience.NewProber(resilience.ProberConfig{
		Peers:    sh.count,
		Self:     sh.index,
		Interval: opts.ProbeInterval,
		Timeout:  opts.ProbeTimeout,
		Probe:    ps.probe,
	})
	return ps
}

// probe is the prober's check: GET the peer's /healthz. It deliberately
// bypasses the breaker — the prober's whole job is to notice a down peer
// recovering while the breaker is refusing it traffic.
func (ps *peerSet) probe(ctx context.Context, peer int) error {
	u := ps.sh.peers[peer].ResolveReference(&url.URL{Path: "/healthz"})
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return err
	}
	resp, err := ps.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// peerResponse is a fully-drained upstream response — body in memory, so
// hedging can cancel the loser's context without tearing the winner's
// body read.
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
// breaker and (on success) the latency histogram. The inbound request is
// never touched: the outbound request is built fresh with a cloned header
// set, per the ReverseProxy contract this layer replaces — mutating r
// would corrupt the caller's view and, worse, a hedged sibling's.
func (ps *peerSet) do(ctx context.Context, peer int, r *http.Request, body []byte, extra http.Header) (*peerResponse, error) {
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
	for k, vs := range extra {
		req.Header[k] = vs
	}
	t0 := time.Now()
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
	ps.observe(time.Since(t0))
	return out, nil
}

func (ps *peerSet) observe(d time.Duration) {
	ps.histMu.Lock()
	ps.hist.Record(d)
	ps.histMu.Unlock()
}

// hedgeDelay is how long the first read attempt runs alone before a
// hedge fires at the next replica: the observed p90 (a slower-than-p90
// forward is probably stuck), clamped to [1ms, 250ms], with a 25ms
// default until enough history accumulates.
func (ps *peerSet) hedgeDelay() time.Duration {
	ps.histMu.Lock()
	defer ps.histMu.Unlock()
	if ps.hist.Count() < 20 {
		return 25 * time.Millisecond
	}
	d := time.Duration(ps.hist.Quantile(0.90))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

// orderTargets sorts key's candidate shards healthiest-first: peers whose
// breaker is not open and whom the prober considers up, then the rest
// (fail-open — with every peer looking down, trying them beats a
// guaranteed 502), self excluded.
func (ps *peerSet) orderTargets(cands []int) []int {
	health := ps.prober.Health()
	alive := make([]int, 0, len(cands))
	var down []int
	for _, p := range cands {
		if p == ps.sh.index {
			continue
		}
		if ps.breakers[p].State() != resilience.BreakerOpen && health.Up(p) {
			alive = append(alive, p)
		} else {
			down = append(down, p)
		}
	}
	return append(alive, down...)
}

// forward proxies r — whose dataset key this shard cannot answer — to the
// fleet. Reads fail over across the replica set with retries (and hedge
// on /estimate); writes go to the primary exactly once.
func (ps *peerSet) forward(w http.ResponseWriter, r *http.Request, key string, read bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading request body: "+err.Error())
		return
	}
	if !read {
		timeout := ps.writeTimeout
		if r.URL.Path == "/train" {
			timeout = ps.trainTimeout
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		pr, err := ps.do(ctx, ps.sh.shardOf(key), r, body, nil)
		if err != nil {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("forwarding to primary of %q: %v", key, err))
			return
		}
		pr.write(w)
		return
	}
	ps.forwardRead(w, r, key, body)
}

// forwardRead fails a read over across key's replica set, healthiest
// peer first, with retries and the /estimate hedge. It serves two
// callers: forward (fronting a request this shard cannot answer) and
// read repair (models.go) — a replica-set member that missed the
// onboarding fan-out re-forwards the read instead of answering 404.
func (ps *peerSet) forwardRead(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	targets := ps.orderTargets(ps.sh.replicasOf(key))
	if len(targets) == 0 {
		// Degenerate topology (replica set ⊆ self); the caller's routing
		// should have served locally.
		ps.sh.misdirect(w, key)
		return
	}
	var pr *peerResponse
	attemptOne := func(attempt int) error {
		peer := targets[attempt%len(targets)]
		ctx, cancel := context.WithTimeout(r.Context(), ps.readTimeout)
		defer cancel()
		var aerr error
		if ps.hedge && r.URL.Path == "/estimate" && len(targets) > 1 {
			next := targets[(attempt+1)%len(targets)]
			pr, aerr = ps.doHedged(ctx, peer, next, r, body)
		} else {
			pr, aerr = ps.do(ctx, peer, r, body, nil)
		}
		return aerr
	}
	if err := ps.retry.Do(r.Context(), attemptOne); err != nil {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("forwarding %q: all replicas failed: %v", key, err))
		return
	}
	pr.write(w)
}

// doHedged races a forward to peer against a hedge to next fired after
// hedgeDelay: whichever completes first wins and the other's context is
// cancelled. The hedge only helps when the first peer is slow rather
// than down — a refused connection fails fast and returns before the
// hedge timer does.
func (ps *peerSet) doHedged(ctx context.Context, peer, next int, r *http.Request, body []byte) (*peerResponse, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		pr  *peerResponse
		err error
	}
	ch := make(chan result, 2)
	launch := func(p int) {
		//autoce:ignore barego -- first response wins; the loser is cancelled, not awaited
		go func() {
			pr, err := ps.do(hctx, p, r, body, nil)
			ch <- result{pr, err}
		}()
	}
	launch(peer)
	inflight := 1
	hedged := next == peer // degenerate replica set: nothing to hedge to
	timer := time.NewTimer(ps.hedgeDelay())
	defer timer.Stop()
	var lastErr error
	for inflight > 0 {
		if hedged {
			select {
			case res := <-ch:
				inflight--
				if res.err == nil {
					return res.pr, nil
				}
				lastErr = res.err
			case <-ctx.Done():
				// Abandoned request: in-flight attempts observe hctx (a
				// child of ctx) and abort; the buffered channel absorbs
				// their results, so nothing leaks.
				if lastErr == nil {
					lastErr = context.Cause(ctx)
				}
				return nil, lastErr
			}
			continue
		}
		select {
		case res := <-ch:
			inflight--
			if res.err == nil {
				return res.pr, nil
			}
			lastErr = res.err
			// The first attempt failed fast (refused connection, open
			// breaker): fire the hedge now instead of waiting out the timer.
			launch(next)
			inflight++
			hedged = true
		case <-timer.C:
			launch(next)
			inflight++
			hedged = true
		}
	}
	return nil, lastErr
}

// replicate fans a successful local onboarding out to one replica-set
// member: the same body, marked X-Shard-Replicate so the member accepts
// it without primary ownership. Unlike client writes, this fan-out is
// retried — re-onboarding an identical payload is idempotent, and the
// common failure is the replica's heavy admission class shedding under
// an onboarding burst (503), which backoff rides out. Still best-effort
// after the budget: the caller logs the failure, and reads for the
// tenant on the lagging replica re-forward to the rest of the replica
// set (read repair) rather than answering 404.
func (ps *peerSet) replicate(ctx context.Context, peer int, key string, body []byte) error {
	return ps.retry.Do(ctx, func(int) error {
		cctx, cancel := context.WithTimeout(ctx, ps.writeTimeout)
		defer cancel()
		r, err := http.NewRequestWithContext(cctx, http.MethodPost, "/datasets", bytes.NewReader(body))
		if err != nil {
			return err
		}
		r.Header.Set("Content-Type", "application/json")
		r.Header.Set("X-Shard-Key", key)
		extra := http.Header{headerReplicate: []string{"1"}}
		pr, err := ps.do(cctx, peer, r, body, extra)
		if err != nil {
			return err
		}
		if pr.status != http.StatusOK {
			return fmt.Errorf("replica answered %d: %s", pr.status, bytes.TrimSpace(pr.body))
		}
		return nil
	})
}

// peerHealthInfo is one row of the /healthz fleet table.
type peerHealthInfo struct {
	URL     string `json:"url"`
	Self    bool   `json:"self,omitempty"`
	Up      bool   `json:"up"`
	Breaker string `json:"breaker"`
	// ConsecFail and LastErr merge the breaker's forward-path evidence
	// with the prober's; whichever failed most recently wins LastErr.
	ConsecFail int    `json:"consec_fail,omitempty"`
	LastErr    string `json:"last_err,omitempty"`
}

// healthTable summarizes the fleet for /healthz: probed up/down, breaker
// state, and the current hedge delay.
func (ps *peerSet) healthTable() map[string]any {
	health := ps.prober.Health()
	peers := make([]peerHealthInfo, ps.sh.count)
	for i := range peers {
		state, consec, lastErr := ps.breakers[i].Snapshot()
		info := peerHealthInfo{
			URL:     ps.sh.peers[i].String(),
			Self:    i == ps.sh.index,
			Up:      health.Up(i),
			Breaker: state.String(),
		}
		if i != ps.sh.index {
			info.ConsecFail = consec
			info.LastErr = lastErr
			if i < len(health.Peers) {
				ph := health.Peers[i]
				if info.LastErr == "" {
					info.LastErr = ph.LastErr
				}
				if ph.ConsecFail > info.ConsecFail {
					info.ConsecFail = ph.ConsecFail
				}
			}
		}
		peers[i] = info
	}
	return map[string]any{
		"peers":          peers,
		"probe_rounds":   health.Round,
		"hedge":          ps.hedge,
		"hedge_delay_ms": ps.hedgeDelay().Milliseconds(),
	}
}
