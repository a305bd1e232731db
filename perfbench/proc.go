package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/netserve"
)

// server is one alertserve child process, listening on loopback ports it
// picked itself.
type server struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	drained  chan struct{}
}

// startServer launches alertserve with an HTTP and a binwire listener and
// waits until it has printed both addresses.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-binary-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The server sizes itself for the host; the GOMAXPROCS limit is the
	// load generator's.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for (s.httpAddr == "" || s.binAddr == "") && sc.Scan() {
		line := sc.Text()
		if a, ok := addrAfter(line, "alertserve: listening on "); ok {
			s.httpAddr = a
		}
		if a, ok := addrAfter(line, "alertserve: binary listener on "); ok {
			s.binAddr = a
		}
	}
	if s.httpAddr == "" || s.binAddr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, errors.New("alertserve exited before printing its listen addresses")
	}
	go func() {
		defer close(s.drained)
		io.Copy(io.Discard, out)
	}()
	return s, nil
}

func addrAfter(line, prefix string) (string, bool) {
	if !strings.HasPrefix(line, prefix) {
		return "", false
	}
	return strings.Fields(line[len(prefix):])[0], true
}

// stop drains the server with SIGTERM, killing it if the drain hangs, and
// waits for the process to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	_ = s.cmd.Wait()
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a process
// (pid 0: this one).
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// dialCounter counts the HTTP connections a client opens.
type dialCounter struct{ n atomic.Int64 }

func (d *dialCounter) transport() *http.Transport {
	var dialer net.Dialer
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			d.n.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     90 * time.Second,
	}
}

// setupStream is a stream id outside every workload's id range, used for
// the first decide that ends a timed set-up.
const setupStream = 1 << 40

// launchServers starts alertserve n times and times each launch from
// process start to the first decide served over the given transport. All
// but the last server are stopped; the last one is returned running.
func launchServers(bin string, n int, binary bool, spec alert.Spec) (*server, []float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := startServer(bin)
		if err != nil {
			return nil, nil, err
		}
		err = firstDecide(s, binary, spec)
		times = append(times, time.Since(t0).Seconds())
		if err == nil {
			err = evictSetupStream(s)
		}
		if err != nil || i < n-1 {
			s.stop()
		}
		if err != nil {
			return nil, nil, err
		}
		if i == n-1 {
			return s, times, nil
		}
	}
	return nil, nil, errors.New("no launches")
}

func firstDecide(s *server, binary bool, spec alert.Spec) error {
	tr := (&dialCounter{}).transport()
	defer tr.CloseIdleConnections()
	opts := client.Options{HTTPClient: &http.Client{Transport: tr}}
	if binary {
		opts.BinaryAddr = s.binAddr
	}
	c, err := client.New("http://"+s.httpAddr, opts)
	if err != nil {
		return err
	}
	defer c.Close()
	_, _, err = c.Decide(context.Background(), setupStream, spec)
	return err
}

func evictSetupStream(s *server) error {
	return withControl(s, func(c *client.Client) error {
		return c.EvictStream(context.Background(), setupStream)
	})
}

// stats reads GET /v1/stats over a short-lived control connection, so the
// read holds no connection while the load runs.
func (s *server) stats() (netserve.StatsResponse, error) {
	var st netserve.StatsResponse
	err := withControl(s, func(c *client.Client) error {
		var err error
		st, err = c.Stats(context.Background())
		return err
	})
	return st, err
}

func withControl(s *server, fn func(*client.Client) error) error {
	tr := (&dialCounter{}).transport()
	defer tr.CloseIdleConnections()
	c, err := client.New("http://"+s.httpAddr, client.Options{HTTPClient: &http.Client{Transport: tr}})
	if err != nil {
		return err
	}
	defer c.Close()
	return fn(c)
}
