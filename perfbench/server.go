package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Child-process lifecycle for cmd/autoce-serve. Every started server is
// registered in live; killAll (deferred in main, and run from the signal
// handler) kills and reaps each one, so no exit path leaves a server
// behind. Pdeathsig is the backstop for a benchmark killed outright.

var live struct {
	sync.Mutex
	servers map[*server]bool
}

func killAll() {
	live.Lock()
	ss := make([]*server, 0, len(live.servers))
	for s := range live.servers {
		ss = append(ss, s)
	}
	live.Unlock()
	for _, s := range ss {
		s.stop()
	}
}

// tailBuffer keeps the last max bytes written to it (the server's
// stderr), for attaching to failure messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *tailBuffer
	exited chan struct{}
	client *http.Client
}

// startServer launches bin on a kernel-assigned port with a model
// directory under dir and waits (bounded) until /readyz answers 200.
func startServer(bin, dir, advisorPath string, conns int, extra ...string) (*server, error) {
	addrFile := filepath.Join(dir, "addr")
	args := append([]string{
		"-advisor", advisorPath, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-model-dir", filepath.Join(dir, "models"),
	}, extra...)
	s := &server{
		stderr: &tailBuffer{max: 16 << 10},
		exited: make(chan struct{}),
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = s.stderr
	s.cmd.Stderr = s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	live.Lock()
	if live.servers == nil {
		live.servers = map[*server]bool{}
	}
	live.servers[s] = true
	live.Unlock()
	go func() { s.cmd.Wait(); close(s.exited) }()

	deadline := time.Now().Add(60 * time.Second)
	for s.base == "" {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			s.base = "http://" + strings.TrimSpace(string(b))
			break
		}
		if err := s.waitTick(deadline); err != nil {
			return nil, s.fail("waiting for -addr-file", err)
		}
	}
	s.client = &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if err := s.waitTick(deadline); err != nil {
			return nil, s.fail("waiting for /readyz", err)
		}
	}
}

func (s *server) waitTick(deadline time.Time) error {
	select {
	case <-s.exited:
		return errors.New("server exited")
	case <-time.After(5 * time.Millisecond):
	}
	if time.Now().After(deadline) {
		return errors.New("timed out")
	}
	return nil
}

// fail stops the server and wraps err with its stderr.
func (s *server) fail(what string, err error) error {
	s.stop()
	return fmt.Errorf("autoce-serve: %s: %v\n--- server stderr ---\n%s", what, err, s.stderr.String())
}

// errorf formats a failure with the server's stderr attached.
func (s *server) errorf(format string, args ...any) error {
	return fmt.Errorf("%s\n--- server stderr ---\n%s", fmt.Sprintf(format, args...), s.stderr.String())
}

// pid is the server's process id.
func (s *server) pid() int { return s.cmd.Process.Pid }

// stop kills the server's process group and reaps it.
func (s *server) stop() {
	live.Lock()
	registered := live.servers[s]
	delete(live.servers, s)
	live.Unlock()
	if !registered {
		return
	}
	syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
	}
}

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// refused reports whether err is an admission refusal (429/503).
func refused(err error) bool {
	var he *httpError
	return errors.As(err, &he) && (he.status == http.StatusTooManyRequests || he.status == http.StatusServiceUnavailable)
}

// post sends a JSON body and decodes the JSON answer into out.
func (s *server) post(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.do(req, out)
}

func (s *server) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return err
	}
	return s.do(req, out)
}

func (s *server) do(req *http.Request, out any) error {
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &httpError{resp.StatusCode, strings.TrimSpace(string(b))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// mustJSON marshals v, which is always a plain struct here.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Response shapes read by the benchmark.

type estimateResp struct {
	Dataset   string    `json:"dataset"`
	Model     string    `json:"model"`
	Estimates []float64 `json:"estimates"`
}

type recommendResp struct {
	Model  int       `json:"model"`
	Scores []float64 `json:"scores"`
}

type trainResp struct {
	Dataset  string `json:"dataset"`
	Model    string `json:"model"`
	Artifact string `json:"artifact"`
}

type datasetResp struct {
	Dataset string `json:"dataset"`
	Rows    int    `json:"rows"`
}

type healthz struct {
	Cache struct {
		ColdLoads  int64 `json:"cold_loads"`
		Evictions  int64 `json:"evictions"`
		Writebacks int64 `json:"writebacks"`
	} `json:"model_cache"`
	Store struct {
		Saves     int64
		SaveBytes int64
		Loads     int64
		LoadBytes int64
	} `json:"model_store"`
}

func (s *server) healthz(ctx context.Context) (healthz, error) {
	var h healthz
	err := s.get(ctx, "/healthz", &h)
	return h, err
}
