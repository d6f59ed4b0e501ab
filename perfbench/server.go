package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one filter-server process started for a run.
type serverProc struct {
	cmd  *exec.Cmd
	base string       // http://127.0.0.1:port
	ctl  *http.Client // control plane: create, delete, stats, metrics
	done chan error   // receives cmd.Wait's result once
	once sync.Once
}

// serverFlags turn off everything that would add background work or
// per-request cost the benchmark does not measure: trace sampling, slow
// capture, the history scraper (autotune is off by default).
var serverFlags = []string{"-trace-sample=0", "-trace-slow-ns=-1", "-history-interval=0"}

// startServer execs the filter-server binary on a free loopback port and
// returns once GET /readyz answers 200.
func startServer(bin string, logw io.Writer) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
		cmd := exec.Command(bin, append([]string{"-addr", addr}, serverFlags...)...)
		cmd.Stdout = logw
		cmd.Stderr = logw
		// The server must not outlive the benchmark, even if it crashes.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		s := &serverProc{
			cmd: cmd, base: "http://" + addr, done: make(chan error, 1),
			ctl: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{DisableCompression: true}},
		}
		go func() { s.done <- cmd.Wait() }()
		if lastErr = s.waitReady(10 * time.Second); lastErr == nil {
			return s, nil
		}
		s.stop()
	}
	return nil, fmt.Errorf("filter-server never became ready: %w", lastErr)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *serverProc) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("server exited during start-up: %v", err)
		default:
		}
		resp, err := s.ctl.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v (last error: %v)", limit, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop terminates the server and waits until the process has exited.
func (s *serverProc) stop() {
	s.once.Do(func() {
		s.ctl.CloseIdleConnections()
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	})
}

// do sends one control-plane request and decodes a JSON answer into out
// (nil: discard). Any non-2xx status is an error.
func (s *serverProc) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.ctl.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

func (s *serverProc) createFilter(name string, w *workload) error {
	body, _ := json.Marshal(map[string]any{
		"name": name, "kind": "bloom", "mbits": w.filterBits, "shards": w.shards,
	})
	return s.do(http.MethodPost, "/v1/filters", body, nil)
}

func (s *serverProc) deleteFilter(name string) error {
	return s.do(http.MethodDelete, "/v1/filters/"+name, nil, nil)
}

// filterStats is the part of GET /v1/filters/{name} the benchmark reads.
type filterStats struct {
	Filter struct {
		SizeBits uint64 `json:"size_bits"`
	} `json:"filter"`
	PerShard   []uint64 `json:"per_shard_counts"`
	KeyLogBits uint64   `json:"key_log_bits"`
}

func (s *serverProc) stats(name string) (filterStats, error) {
	var st filterStats
	err := s.do(http.MethodGet, "/v1/filters/"+name, nil, &st)
	return st, err
}

// skew is the largest shard's key count over the mean.
func (st filterStats) skew() float64 {
	var total, max uint64
	for _, c := range st.PerShard {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(st.PerShard)) / float64(total)
}

// scrape reads GET /metrics into a map from series (name plus label set,
// as exposed) to value.
func (s *serverProc) scrape() (map[string]float64, error) {
	resp, err := s.ctl.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
