package main

// Shard-by-dataset routing: a static fleet of autoce-serve processes
// splits the tenant space so each shard's model cache only pages the
// datasets it owns. Ownership is rendezvous (highest-random-weight)
// hashing — every shard computes the same owner for a dataset name with
// no coordination, and resizing the fleet from n to n+1 shards only moves
// the keys whose argmax lands on the new shard (~1/(n+1) of them), not
// half the keyspace like mod-hashing would.
//
// Each dataset maps to a replica set of R shards (-replicas, default 2):
// the rendezvous argmax is the primary, the runners-up are replicas. The
// primary takes writes (/datasets, /train); every member of the replica
// set serves reads (/estimate, /recommend, /drift) for the dataset, from
// lazy stubs over the shared -model-dir artifact store — the same
// bit-identical cold-load path a restart uses.
//
// Two routing layers compose:
//
//   - In-handler: dataset-addressed endpoints reject a dataset this shard
//     cannot answer for with 421 Misdirected Request, naming the primary
//     (X-Shard-Want, and X-Shard-Peer when peer URLs are configured).
//     Writes 421 everywhere but the primary; reads 421 outside the
//     replica set. A shard is therefore always safe to hit directly — it
//     can serve a wrong answer for a misrouted tenant never, only a 421.
//   - Fleet proxy (optional, -shard-peers): only a request carrying an
//     X-Shard-Key header forwards, and only for a dataset this shard
//     cannot answer: outside its replica set, or a tenant read on a
//     member that lacks the tenant (shardRoute). It goes to a shard that
//     can, with per-peer circuit breakers and one attempt per member of
//     the replica set (proxy.go). X-Shard-Forwarded guards against
//     forwarding loops when peers disagree about the topology
//     mid-rollout: a forwarded request is never forwarded again.

import (
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

type sharder struct {
	index    int
	count    int
	replicas int        // replica-set size R, in [1, count]
	peers    []*url.URL // len == count in proxy mode, nil otherwise
}

// newSharder builds the routing config. count <= 1 means no sharding
// (returns nil); replicas <= 0 defaults to min(2, count); peerList is an
// optional comma-separated list of count base URLs enabling fleet-proxy
// mode.
func newSharder(index, count, replicas int, peerList string) (*sharder, error) {
	if count <= 1 {
		if peerList != "" {
			return nil, fmt.Errorf("-shard-peers requires -shard-count >= 2")
		}
		if count == 1 {
			// A 1-shard "fleet" routes every dataset to itself; run unsharded
			// but say so — the operator probably meant a larger -shard-count.
			log.Printf("-shard-count 1 is a single-shard fleet; running unsharded")
		}
		return nil, nil
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("-shard-index %d outside [0, %d)", index, count)
	}
	if replicas <= 0 {
		replicas = 2
	}
	if replicas > count {
		replicas = count
	}
	sh := &sharder{index: index, count: count, replicas: replicas}
	if peerList != "" {
		parts := strings.Split(peerList, ",")
		if len(parts) != count {
			return nil, fmt.Errorf("-shard-peers lists %d URLs for %d shards", len(parts), count)
		}
		for i, p := range parts {
			u, err := url.Parse(strings.TrimSpace(p))
			if err != nil || u.Scheme == "" || u.Host == "" {
				return nil, fmt.Errorf("-shard-peers entry %d (%q) is not an absolute URL", i, p)
			}
			sh.peers = append(sh.peers, u)
		}
	}
	return sh, nil
}

// shardOf returns the owning (primary) shard for key: the shard whose
// (key, shard) score is highest. Every member of the fleet computes the
// same answer. The per-shard score runs the key's hash through a
// full-avalanche finalizer salted by the shard number — hashing the
// shard's decimal form into the FNV stream instead would bias the argmax
// badly, because FNV's final byte only perturbs the low bits.
func (sh *sharder) shardOf(key string) int {
	return sh.replicasOf(key)[0]
}

// replicasOf returns key's replica set: the replicas highest-scoring
// shards, primary first, in descending score order. Like the argmax, the
// ranking is agreed fleet-wide with no coordination, and growing the
// fleet only perturbs sets whose top-R ranking the new shard enters.
func (sh *sharder) replicasOf(key string) []int {
	h := fnv.New64a()
	io.WriteString(h, key)
	kh := h.Sum64()
	set := make([]int, 0, sh.replicas)
	scores := make([]uint64, 0, sh.replicas)
	for i := 0; i < sh.count; i++ {
		s := mix64(kh ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		// Insertion sort into the running top-R (R is 2 or 3 in practice).
		pos := len(set)
		for pos > 0 && s > scores[pos-1] {
			pos--
		}
		if pos >= sh.replicas {
			continue
		}
		set = append(set, 0)
		scores = append(scores, 0)
		copy(set[pos+1:], set[pos:])
		copy(scores[pos+1:], scores[pos:])
		set[pos], scores[pos] = i, s
		if len(set) > sh.replicas {
			set, scores = set[:sh.replicas], scores[:sh.replicas]
		}
	}
	return set
}

// mix64 is the splitmix64 finalizer: a bijective full-avalanche mix, so
// every shard's salt reshuffles the comparison order uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// owns reports whether this shard is key's primary (write authority).
func (sh *sharder) owns(key string) bool { return sh.shardOf(key) == sh.index }

// backs reports whether this shard is in key's replica set (read
// authority; the primary backs its own keys).
func (sh *sharder) backs(key string) bool {
	for _, i := range sh.replicasOf(key) {
		if i == sh.index {
			return true
		}
	}
	return false
}

// misdirect answers a request for a dataset this shard cannot serve.
func (sh *sharder) misdirect(w http.ResponseWriter, key string) {
	want := sh.shardOf(key)
	w.Header().Set("X-Shard-Want", strconv.Itoa(want))
	hint := ""
	if sh.peers != nil {
		w.Header().Set("X-Shard-Peer", sh.peers[want].String())
		hint = " at " + sh.peers[want].String()
	}
	writeError(w, http.StatusMisdirectedRequest, fmt.Sprintf(
		"dataset %q belongs to shard %d of %d%s; this is shard %d", key, want, sh.count, hint, sh.index))
}

// shardReadOK reports whether this shard may answer reads for dataset —
// any member of its replica set may — answering the 421 itself when not.
// An empty dataset (the handler will 400 on validation) and an unsharded
// server always pass.
func (s *server) shardReadOK(w http.ResponseWriter, dataset string) bool {
	if s.shard == nil || dataset == "" || s.shard.backs(dataset) {
		return true
	}
	s.shard.misdirect(w, dataset)
	return false
}

// shardWriteOK reports whether this shard may accept a mutation of
// dataset: the primary always may, and a replica-set member may when the
// request is the primary's replication fan-out (X-Shard-Replicate).
func (s *server) shardWriteOK(w http.ResponseWriter, r *http.Request, dataset string) bool {
	if s.shard == nil || dataset == "" || s.shard.owns(dataset) {
		return true
	}
	if r.Header.Get(headerReplicate) != "" && s.shard.backs(dataset) {
		return true
	}
	s.shard.misdirect(w, dataset)
	return false
}

// shardPrimaryOK is shardWriteOK without the replication carve-out, for
// mutations that are never fanned out (/train: replicas pick trained
// models up lazily from the shared artifact store instead).
func (s *server) shardPrimaryOK(w http.ResponseWriter, dataset string) bool {
	if s.shard == nil || dataset == "" || s.shard.owns(dataset) {
		return true
	}
	s.shard.misdirect(w, dataset)
	return false
}

// readOnlyRequest classifies a request as an idempotent read — safe to
// serve from a replica and to fail over. Anything unrecognized is
// treated as a write (the conservative direction: it routes to the
// primary and is never replayed).
func readOnlyRequest(r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	switch r.URL.Path {
	case "/estimate", "/recommend", "/drift":
		return true
	}
	return false
}

// shardRoute is the fleet routing layer, and the only place a request is
// forwarded. Only requests carrying an X-Shard-Key forward (body
// undecoded, with breaker failover for reads), and only when this shard
// cannot answer for the key: it is outside the dataset's replica set (or
// not its primary, for a write), or it is a member that has not published
// the tenant, asked for a tenant read. Everything else — a request
// without the header included — falls through to the local mux, whose
// handlers enforce the read/write matrix per dataset.
func (s *server) shardRoute(next http.Handler) http.Handler {
	sh := s.shard
	if sh == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("X-Shard-Key")
		if key == "" {
			next.ServeHTTP(w, r)
			return
		}
		if r.Header.Get(headerReplicate) != "" {
			// Replication fan-out from a primary: accept locally or 421;
			// never forward (a misdelivered fan-out must not bounce around
			// the fleet).
			if sh.backs(key) {
				next.ServeHTTP(w, r)
			} else {
				sh.misdirect(w, key)
			}
			return
		}
		read := readOnlyRequest(r)
		forward := s.peers != nil && r.Header.Get("X-Shard-Forwarded") == ""
		if sh.owns(key) || (read && sh.backs(key)) {
			// A member that missed the best-effort onboarding fan-out
			// forwards a tenant read like a non-member would, and the
			// forward's 404 rule decides the answer.
			tenantRead := r.URL.Path == "/estimate" || r.URL.Path == "/recommend"
			if !forward || sh.replicas == 1 || !tenantRead || s.fleet.tenant(key) != nil {
				next.ServeHTTP(w, r)
				return
			}
		}
		if forward {
			s.peers.forward(w, r, key, read)
			return
		}
		sh.misdirect(w, key)
	})
}
