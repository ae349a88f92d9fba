package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"time"
)

// buildAdlserve compiles cmd/adlserve from the tree the benchmark sits in.
// It runs once per process and is not part of any timed set-up.
func buildAdlserve(ctx context.Context) (string, error) {
	const bin = "out/adlserve"
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/adlserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build adlserve: %v\n%s", err, out)
	}
	return bin, nil
}

// child is a running adlserve. It dies with ctx, so a signal that cancels
// the run's context kills it; stop kills it on every other path.
type child struct {
	cmd  *exec.Cmd
	url  string
	gone chan struct{} // closed when the process has been waited for
}

// startChild starts adlserve on a free loopback port and waits until
// /healthz answers. Extra args follow adlserve's own flags.
func startChild(ctx context.Context, bin string, args ...string) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start adlserve: %w", err)
	}
	c := &child{cmd: cmd, url: "http://" + addr, gone: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // "signal: killed" is the expected outcome
		close(c.gone)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(c.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.gone:
			return nil, fmt.Errorf("adlserve on %s exited before it was healthy: %v", addr, err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("adlserve on %s not healthy after 10s: %v", addr, err)
		}
	}
}

// stop kills the child and waits until it has gone.
func (c *child) stop() {
	_ = c.cmd.Process.Kill() // already exited is fine
	<-c.gone
}

// queryFn posts to /query over one keep-alive connection of its own and
// asks for the result text, as a caller that wants the rows would.
func (c *child) queryFn() queryFn {
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
	return func(src string) (int, error) {
		body, err := json.Marshal(map[string]any{"query": src, "result": true})
		if err != nil {
			return 0, err
		}
		resp, err := hc.Post(c.url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var reply struct {
			Rows   int    `json:"rows"`
			Result string `json:"result"`
			Error  string `json:"error"`
		}
		// Read to the end so that the connection is reused.
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal(raw, &reply); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("adlserve: %s: %s", resp.Status, reply.Error)
		}
		return reply.Rows, nil
	}
}
