package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alert-project/alert/client"
)

// setupLaunches is how many timed set-ups a run makes; setup_s is their
// median. maxRetries is how often the client retries a 429/503, which the
// server sheds before touching any state.
const (
	setupLaunches = 15
	maxRetries    = 3
)

// netWorkload is the fixed shape of a network workload. Rates and stream
// counts are constants, never derived from measured capacity, so an
// optimisation cannot change its own workload.
type netWorkload struct {
	scenario     string
	binary       bool          // binwire data plane (else HTTP/JSON)
	streams      int           // stream ids 0..streams-1
	callers      int           // closed-loop callers
	observeEvery int           // feedback on every n-th input of a stream
	axes         int           // inputs per stream the paper's axes cover
	warm         time.Duration // warm-up before the measured window
	slo          time.Duration // latency limit for slo_attainment
}

var (
	// loopBinary is the paper's loop over binwire: every input is Decide →
	// sim step → Observe, so every Decide runs the uncached scan. Two
	// closed-loop callers share the client's one pooled connection.
	loopBinary = netWorkload{scenario: "phased", binary: true, streams: 64, callers: 2,
		observeEvery: 1, axes: 4000, warm: 2 * time.Second, slo: 400 * time.Microsecond}
	// decideJSON is a front end with almost no engine work: two callers,
	// each on its own keep-alive connection, and feedback on every 16th
	// input so most decides hit the session's decision cache.
	decideJSON = netWorkload{scenario: "steady", streams: 16, callers: 2,
		observeEvery: 16, axes: 8000, warm: 2 * time.Second, slo: 700 * time.Microsecond}
)

// netClient is one data-plane client of the load generator.
type netClient struct {
	c  *client.Client
	tr *http.Transport
}

func newNetClient(s *server, binary bool, dials *dialCounter) (*netClient, error) {
	tr := dials.transport()
	opts := client.Options{HTTPClient: &http.Client{Transport: tr}, MaxRetries: maxRetries}
	if binary {
		opts.BinaryAddr = s.binAddr
	}
	c, err := client.New("http://"+s.httpAddr, opts)
	if err != nil {
		return nil, err
	}
	return &netClient{c: c, tr: tr}, nil
}

func (n *netClient) close() {
	n.c.Close()
	n.tr.CloseIdleConnections()
}

// isOverload reports whether err is an admission rejection.
func isOverload(err error) bool {
	var oe *client.OverloadError
	return errors.As(err, &oe)
}

// runNetwork drives an alertserve child process with one network
// workload.
func runNetwork(cfg config, wl netWorkload) (*runData, error) {
	w, err := newWorld(wl.scenario, cfg.seed)
	if err != nil {
		return nil, err
	}
	srv, setup, err := launchServers(cfg.alertserve, setupLaunches, wl.binary, w.base)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	st0, err := srv.stats()
	if err != nil {
		return nil, err
	}
	// JSON callers each get a client and so a connection; binwire callers
	// share one client and its pooled connection.
	var dials dialCounter
	clients := make([]*netClient, wl.callers)
	for i := range clients {
		if wl.binary && i > 0 {
			clients[i] = clients[0]
			continue
		}
		nc, err := newNetClient(srv, wl.binary, &dials)
		if err != nil {
			return nil, err
		}
		defer nc.close()
		// One serial decide dials the client's connection before the
		// clock starts, so no cold-start dial herd lands in the run.
		if _, _, err := nc.c.Decide(context.Background(), setupStream, w.base); err != nil {
			return nil, fmt.Errorf("warming the client: %w", err)
		}
		clients[i] = nc
	}
	if err := evictSetupStream(srv); err != nil {
		return nil, err
	}

	lives := make([]*served, wl.streams)
	gens := make([]*stream, wl.streams)
	for s := range lives {
		lives[s] = &served{key: streamKey{id: s}, observeEvery: wl.observeEvery, axes: wl.axes}
		gens[s] = w.newStream(lives[s].key)
	}
	start := time.Now().Add(50 * time.Millisecond)
	p := newPhases(start.Add(wl.warm), cfg.seconds, cfg.trace)
	var overloadFails atomic.Int64
	var recs []*recorder
	var wg sync.WaitGroup
	var mu sync.Mutex
	for ci := 0; ci < wl.callers; ci++ {
		var owned []int
		for s := ci; s < wl.streams; s += wl.callers {
			owned = append(owned, s)
		}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rec := driveClosed(clients[ci].c, owned, gens, lives, &p, wl.slo, &overloadFails)
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	st1, err := srv.stats()
	if err != nil {
		return nil, err
	}
	r := &runData{setup: setup}
	if r.rssMB, err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	conns := dials.n.Load()
	r.connsHeld = int(conns)
	if wl.binary {
		r.connsHeld += int(st1.Bin.ConnsOpened - st1.Bin.ConnsClosed)
		conns += st1.Bin.ConnsOpened - st0.Bin.ConnsOpened
	}
	li := layerInput{transport: "json", st0: st0, st1: st1, overloadFails: overloadFails.Load(),
		connsOpened: conns, observeAll: wl.observeEvery == 1}
	if wl.binary {
		li.transport = "binary"
	}
	return finish(cfg, w, r, recs, p, lives, li)
}

// driveClosed is one closed-loop caller: it serves its streams round-robin,
// issuing each input when the previous one completes, and timing it from
// its send. A stream that fails once is dropped from the rotation.
func driveClosed(c *client.Client, owned []int, gens []*stream, lives []*served, p *phases, slo time.Duration,
	overloadFails *atomic.Int64) *recorder {
	ctx := context.Background()
	traced := p.tracedPhase()
	rec := newRecorder(slo)
	for j := 0; len(owned) > 0; j++ {
		k := j % len(owned)
		id := owned[k]
		st, sv := gens[id], lives[id]
		i := len(sv.decisions)
		spec := st.next()
		t1 := time.Now()
		ph := p.of(t1)
		if ph == len(p.bounds) {
			return rec
		}
		d, _, err := c.Decide(ctx, id, spec)
		if err == nil {
			sv.decisions = append(sv.decisions, d)
			t2 := time.Now()
			_, fb := st.step(d)
			t3 := time.Now()
			obs := sv.observes(i)
			if obs {
				err = c.Observe(ctx, id, fb)
			}
			t4 := time.Now()
			if err == nil {
				rec.add(p, ph, true, t4.Sub(t1), t4)
				if ph == traced {
					rec.spans = append(rec.spans, span{decide: t2.Sub(t1), step: t3.Sub(t2), observe: t4.Sub(t3),
						observed: obs, first: i == 0})
				}
				continue
			}
		}
		if isOverload(err) {
			overloadFails.Add(1)
		}
		rec.add(p, ph, false, 0, time.Now())
		owned = append(owned[:k:k], owned[k+1:]...)
	}
	return rec
}

// finish verifies the decisions, folds the samples into the end-to-end
// metrics of window 1, and for a traced run builds the per-layer metrics
// from window 2.
func finish(cfg config, w *world, r *runData, recs []*recorder, p phases, lives []*served,
	li layerInput) (*runData, error) {
	r.sum = summarize(recs, p, 1)
	v := verify(w, lives, cfg.trace)
	r.axes, r.mismatch = v.axes, v.mismatch
	if !cfg.trace || r.mismatch != nil {
		return r, nil
	}
	li.w, li.sample = w, v.sample
	li.spans = collectSpans(recs)
	li.untraced, li.traced = r.sum, summarize(recs, p, p.tracedPhase())
	layers, note, err := layerMetrics(li)
	r.layers = layers
	if note != "" {
		r.note = strings.TrimSpace(r.note + "\n" + note)
	}
	return r, err
}
