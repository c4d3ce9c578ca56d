package main

// The -chaos drill: fleet-level fault tolerance under a live kill.
//
// Three autoce-serve shards share one artifact store, route by
// rendezvous replica sets (-shard-count 3 -replicas 2), and keep
// per-shard tenant manifests. The harness onboards and trains tenants
// through rotating front doors (every request carries X-Shard-Key, so
// any shard can front any tenant), records per-tenant ground truth,
// then runs an estimate storm against the two outer shards while the
// middle shard is SIGKILLed a third of the way in and restarted with
// identical flags two thirds of the way in.
//
// Gates, checked at exit (non-zero status on violation):
//
//   - Zero wrong-tenant answers, before, during, and after the kill —
//     failover must reroute to a replica serving the same artifact,
//     never to another tenant's model.
//   - The client-visible error rate (502s and transport errors; 429/503
//     sheds are excluded as in the base harness) stays within
//     -chaos-error-budget of storm requests.
//   - The killed shard rejoins from its manifest: after restart it
//     serves a backed tenant's estimate locally (no routing header, so
//     forwarding cannot mask a recovery failure) with the exact
//     pre-kill answer, without any client re-onboarding.
//   - Every shard that was stopped cleanly exits cleanly, and no shard
//     log reports a data race (CI runs a -race build).

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/latency"
	"repro/internal/par"
)

var (
	chaosMode = flag.Bool("chaos", false, "run the 3-shard kill/restart drill instead of the single-server soak")
	errBudget = flag.Float64("chaos-error-budget", 0.05, "max fraction of storm requests allowed to fail client-visibly (502/transport) during the kill window")
)

const chaosShards = 3

func runChaos() error {
	tmp, err := os.MkdirTemp("", "cloudtenant-chaos")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	advPath := filepath.Join(tmp, "advisor.gob")
	if err := trainAdvisor(advPath); err != nil {
		return fmt.Errorf("advisor: %w", err)
	}
	bin := *serveBin
	if bin == "" {
		bin = filepath.Join(tmp, "autoce-serve")
		if err := buildServer(bin); err != nil {
			return fmt.Errorf("building server: %w", err)
		}
	}

	addrs, err := reserveAddrs(chaosShards)
	if err != nil {
		return err
	}
	modelDir := filepath.Join(tmp, "models")
	fleet := make([]*serverProc, chaosShards)
	for i := range fleet {
		if fleet[i], err = spawnShard(bin, advPath, modelDir, i, addrs); err != nil {
			return fmt.Errorf("spawning shard %d: %w", i, err)
		}
		// Late-bound: the slot is re-pointed when shard 1 restarts, and
		// every error return must reap the *current* process.
		defer func(i int) { fleet[i].stop() }(i)
	}
	fmt.Printf("cloudtenant: chaos drill — %d tenants over %d shards (replicas 2), storm %v x %d workers, kill+restart shard 1\n",
		*nTenants, chaosShards, *stormFor, *workers)

	lat := &hists{m: map[string]*latency.Histogram{}}
	tenants := makeTenants(*nTenants, *seed)
	if err := chaosSetup(fleet, tenants, lat); err != nil {
		return fleet[0].failWithLog(err)
	}

	// The storm targets the two surviving fronts only; shard 1
	// participates as primary or replica for roughly 2/3 of the tenants,
	// so its death exercises real failover, not just a dead front door.
	fronts := []*serverProc{fleet[0], fleet[2]}
	var killed *serverProc
	killAt := *stormFor / 3
	restartAt := 2 * killAt
	restartErr := make(chan error, 1)
	//autoce:ignore barego -- the fault timeline runs beside the storm, not as fan-out work
	go func() {
		time.Sleep(killAt)
		fmt.Println("  chaos: SIGKILL shard 1")
		killed = fleet[1]
		killed.kill()
		time.Sleep(restartAt - killAt)
		fmt.Println("  chaos: restarting shard 1")
		sp, err := spawnShard(bin, advPath, modelDir, 1, addrs)
		if err != nil {
			restartErr <- fmt.Errorf("restarting shard 1: %w", err)
			return
		}
		fleet[1] = sp
		restartErr <- nil
	}()

	wrong, shed, unavail, requests := chaosStorm(fronts, tenants, lat)
	if err := <-restartErr; err != nil {
		return err
	}

	for _, ep := range []string{"onboard", "train", "estimate"} {
		if h := lat.m[ep]; h != nil {
			fmt.Printf("  %-15s %s\n", ep, h.Summary())
		}
	}
	fmt.Printf("  storm: %d requests, %d wrong-tenant answers, %d shed (429/503), %d unavailable (502/transport)\n",
		requests, wrong, shed, unavail)

	if wrong > 0 {
		return fleet[0].failWithLog(fmt.Errorf("%d wrong-tenant answers", wrong))
	}
	if requests == 0 {
		return fmt.Errorf("storm sent no requests — drill proved nothing")
	}
	if rate := float64(unavail) / float64(requests); rate > *errBudget {
		return fleet[0].failWithLog(fmt.Errorf("client-visible error rate %.3f over budget %.3f (%d/%d)",
			rate, *errBudget, unavail, requests))
	}
	if err := checkRecovered(fleet[1], tenants); err != nil {
		return fleet[1].failWithLog(err)
	}

	for i, sp := range fleet {
		if err := sp.stop(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	// The killed process can't exit cleanly (SIGKILL); it still must not
	// have logged a data race while alive.
	if killed != nil {
		if err := killed.checkLog(); err != nil {
			return err
		}
	}
	return nil
}

// reserveAddrs picks n free loopback ports by binding and releasing
// them; the shards bind the same addresses moments later. The gap is a
// benign race on an otherwise idle CI host — and the fleet needs every
// peer URL known before the first shard starts.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs, nil
}

// spawnShard starts one fleet member on its reserved address. All shards
// share -model-dir (the artifact store replicas lazily load trained
// models from) while each keeps its own auto-derived tenant manifest
// (the directory <model-dir>/shard-<i>.manifest, one record per tenant)
// — which is exactly what the restarted shard recovers from.
func spawnShard(bin, advPath, modelDir string, index int, addrs []string) (*serverProc, error) {
	args := []string{
		"-advisor", advPath,
		"-addr", addrs[index],
		"-model-dir", modelDir,
		"-shard-index", fmt.Sprint(index),
		"-shard-count", fmt.Sprint(len(addrs)),
		"-replicas", "2",
		"-shard-peers", peerURLs(addrs),
		"-peer-timeout", "2s",
	}
	sp := &serverProc{cmd: exec.Command(bin, args...), log: &bytes.Buffer{}, base: "http://" + addrs[index]}
	sp.cmd.Stdout = sp.log
	sp.cmd.Stderr = sp.log
	if err := sp.cmd.Start(); err != nil {
		return nil, err
	}
	sp.client = &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := sp.client.Get(sp.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, nil
			}
		}
		if time.Now().After(deadline) {
			sp.kill()
			return nil, fmt.Errorf("shard %d never became healthy; log:\n%s", index, tail(sp.log))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func peerURLs(addrs []string) string {
	urls := make([]string, len(addrs))
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	return strings.Join(urls, ",")
}

// chaosSetup onboards and trains every tenant through rotating front
// doors, then records ground truth — all with the routing header, all
// before any fault. Ground truth uses an explicit model name because
// replica-served estimates (post-kill) resolve models by name from the
// shared store, not from the primary's per-tenant default.
func chaosSetup(fleet []*serverProc, tenants []*tenant, lat *hists) error {
	err := par.For(len(tenants), *setupPar, func(i int) error {
		tn, front := tenants[i], fleet[i%len(fleet)]
		t0 := time.Now()
		if _, err := front.postKey("/datasets", tn.name, datasetBody(tn.d), nil, 20); err != nil {
			return fmt.Errorf("onboarding %s: %w", tn.name, err)
		}
		lat.record("onboard", time.Since(t0))
		t0 = time.Now()
		if _, err := front.postKey("/train", tn.name, map[string]any{
			"dataset": tn.name, "model": "Postgres", "queries": 30, "sample_rows": 80,
		}, nil, 20); err != nil {
			return fmt.Errorf("training %s: %w", tn.name, err)
		}
		lat.record("train", time.Since(t0))
		return nil
	})
	if err != nil {
		return err
	}
	for i, tn := range tenants {
		var er struct {
			Estimates []float64 `json:"estimates"`
		}
		if _, err := fleet[i%len(fleet)].postKey("/estimate", tn.name, map[string]any{
			"dataset": tn.name, "model": "Postgres", "queries": tn.queries,
		}, &er, 20); err != nil {
			return fmt.Errorf("ground truth for %s: %w", tn.name, err)
		}
		if len(er.Estimates) != len(tn.queries) {
			return fmt.Errorf("ground truth for %s: %d estimates for %d queries", tn.name, len(er.Estimates), len(tn.queries))
		}
		tn.expected = er.Estimates
	}
	fmt.Printf("  onboarded, trained, and recorded %d tenants\n", len(tenants))
	return nil
}

// chaosStorm is the read storm against the surviving fronts. Sheds
// (429/503) are tolerated as in the base harness; 502s and transport
// errors count against the chaos error budget; any 200 is checked
// against the tenant's recorded answer.
func chaosStorm(fronts []*serverProc, tenants []*tenant, lat *hists) (wrong, shed, unavail, requests int64) {
	stop := time.Now().Add(*stormFor)
	par.For(*workers, *workers, func(w int) error {
		rng := rand.New(rand.NewSource(int64(w) * 7919))
		var single latency.Histogram
		defer lat.merge("estimate", &single)
		for time.Now().Before(stop) {
			tn := tenants[rng.Intn(len(tenants))]
			front := fronts[rng.Intn(len(fronts))]
			qi := rng.Intn(len(tn.queries))
			atomic.AddInt64(&requests, 1)
			var er struct {
				Estimate float64 `json:"estimate"`
			}
			t0 := time.Now()
			status, err := front.postKey("/estimate", tn.name, map[string]any{
				"dataset": tn.name, "model": "Postgres", "query": tn.queries[qi],
			}, &er, 0)
			switch {
			case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
				atomic.AddInt64(&shed, 1)
			case status == http.StatusBadGateway || status == 0:
				atomic.AddInt64(&unavail, 1)
			case err != nil || status != http.StatusOK:
				// Anything else (404, 409, 421...) is a routing or
				// recovery bug, which the wrong counter surfaces.
				atomic.AddInt64(&wrong, 1)
			case er.Estimate != tn.expected[qi]:
				atomic.AddInt64(&wrong, 1)
			default:
				single.Record(time.Since(t0))
			}
		}
		return nil
	})
	return wrong, shed, unavail, requests
}

// checkRecovered proves the restarted shard rejoined from its manifest:
// without the routing header a shard serves only datasets it backs (421
// otherwise), so a correct local answer cannot have been forwarded and
// cannot come from a tenant the manifest failed to restore.
func checkRecovered(sp *serverProc, tenants []*tenant) error {
	backed := 0
	for _, tn := range tenants {
		qi := len(tn.queries) - 1 // full-range query: tracks the unique row count
		var er struct {
			Estimate float64 `json:"estimate"`
		}
		status, err := sp.postKey("/estimate", "", map[string]any{
			"dataset": tn.name, "model": "Postgres", "query": tn.queries[qi],
		}, &er, 20)
		if status == http.StatusMisdirectedRequest {
			continue // not backed by this shard; expected for ~1/3 of tenants
		}
		if err != nil {
			return fmt.Errorf("restarted shard, tenant %s: %w", tn.name, err)
		}
		if er.Estimate != tn.expected[qi] {
			return fmt.Errorf("restarted shard answered %v for %s, recorded %v — recovery served the wrong model",
				er.Estimate, tn.name, tn.expected[qi])
		}
		backed++
	}
	if backed == 0 {
		return fmt.Errorf("restarted shard backs no tenant — manifest recovery untested")
	}
	fmt.Printf("  recovery: restarted shard serves %d/%d tenants locally from its manifest\n", backed, len(tenants))
	return nil
}
