package main

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/netserve"
	"github.com/alert-project/alert/internal/overload"
)

// codecReps is how many times each codec replay runs; the median rep is
// reported.
const codecReps = 5

// ledgerTolerance bounds |loop p50 − (decide p50 + sim p50 + observe
// p50)| as a share of loop p50 on loop-binary. Medians of parts do not add
// exactly to the median of the whole (the gap measured 1.7–2.9% over five
// seeds); a larger gap means time the spans do not cover, and fails the
// traced run.
const ledgerTolerance = 0.10

// layerInput is what a traced run hands to the per-layer report.
type layerInput struct {
	w         *world
	sample    []replayed // served inputs as the oracle replayed them
	spans     spanStats  // traced window
	untraced  summary    // the untraced window
	traced    summary    // the traced window
	transport string     // "binary", "json", or "inproc"
	// st0 and st1 are /v1/stats before and after the drive (network
	// workloads only).
	st0, st1 netserve.StatsResponse
	// inproc is the in-process server's counters after the drive
	// (churn-inproc only).
	inproc        alert.ServerStats
	overloadFails int64
	connsOpened   int64
	observeAll    bool // feedback on every input, so the ledger check applies
}

// layerMetrics builds every per-layer metric. Layers a workload does not
// route through report 0. It fails when the loop-binary ledger does not
// balance.
func layerMetrics(in layerInput) (map[string]metric, string, error) {
	clock := clockCost()
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	med := func(xs []time.Duration) float64 { return ns(quantile(xs, 0.5)) }

	// core: a replay of the sampled inputs through fresh core sessions.
	c := coreReplay(in.w, in.sample)
	set("core.decide_uncached_ns", ns(netOf(quantile(c.uncached, 0.5), clock)), "ns")
	set("core.decide_cached_ns", ns(netOf(quantile(c.cached, 0.5), clock)), "ns")
	set("core.observe_ns", ns(netOf(quantile(c.observe, 0.5), clock)), "ns")
	set("core.cache_hit_ratio", float64(c.hits)/float64(max(c.decides, 1)), "ratio")
	coreAll := quantile(append(append([]time.Duration(nil), c.uncached...), c.cached...), 0.5)

	// serve: live spans in-process; a replay through alert.Server behind
	// the network.
	var sv serveTimes
	var avgQueue time.Duration
	if in.transport == "inproc" {
		sv = serveTimes{decide: in.spans.decide, first: in.spans.first, observe: in.spans.observe, evict: in.spans.evict}
		if in.inproc.Streams > 0 {
			sv.bytesPerStream = float64(in.inproc.SessionBytes) / float64(in.inproc.Streams)
		}
		avgQueue = in.inproc.AvgQueueDelay
	} else {
		var err error
		if sv, err = serveReplay(in.w, in.sample); err != nil {
			return nil, "", err
		}
		avgQueue = in.st1.Serve.AvgQueueDelay
	}
	serveDecide := quantile(sv.decide, 0.5)
	set("serve.decide_ns", ns(serveDecide), "ns")
	set("serve.observe_ns", med(sv.observe), "ns")
	set("serve.queue_ns", ns(serveDecide-netOf(coreAll, clock)), "ns")
	set("serve.avg_queue_delay_ns", ns(avgQueue), "ns")
	set("serve.first_touch_ns", med(sv.first), "ns")
	set("serve.evict_ns", med(sv.evict), "ns")
	set("serve.session_bytes_per_stream", sv.bytesPerStream, "bytes")

	// binwire: codec replay of the sampled inputs, and the server's
	// group-commit counters.
	bc, err := binwireReplay(in.sample)
	if err != nil {
		return nil, "", err
	}
	set("binwire.encode_ns", bc.encodeNs, "ns")
	set("binwire.decode_ns", bc.decodeNs, "ns")
	set("binwire.frame_bytes", bc.frameBytes, "bytes")
	perFlush := 0.0
	if in.st0.Bin != nil && in.st1.Bin != nil {
		b0, b1 := in.st0.Bin, in.st1.Bin
		decides := b1.Decides - b0.Decides
		// A decide served alone is a flush of one.
		flushes := (b1.CoalesceFlushes - b0.CoalesceFlushes) + decides - (b1.Coalesced - b0.Coalesced)
		if flushes > 0 {
			perFlush = float64(decides) / float64(flushes)
		}
	}
	set("binwire.decides_per_flush", perFlush, "count")

	// netserve: server-side averages over the drive, and the part of the
	// client round trip that neither the engine nor the codec explains.
	n0, n1 := in.st0.Net, in.st1.Net
	set("netserve.http_request_ns", windowAvg(n0.AvgRequestLatency, n0.Decides+n0.Batches, n1.AvgRequestLatency, n1.Decides+n1.Batches), "ns")
	binAvg := 0.0
	if in.st0.Bin != nil && in.st1.Bin != nil {
		binAvg = windowAvg(in.st0.Bin.AvgDecideLatency, in.st0.Bin.Decides, in.st1.Bin.AvgDecideLatency, in.st1.Bin.Decides)
	}
	set("netserve.binary_decide_ns", binAvg, "ns")
	rtt := quantile(append(append([]time.Duration(nil), in.spans.decide...), in.spans.first...), 0.5)
	self := 0.0
	switch in.transport {
	case "binary":
		self = ns(rtt-serveDecide) - bc.decideCodecNs
	case "json":
		self = ns(rtt-serveDecide) - jsonDecideCodecNs(in.sample)
	}
	set("netserve.self_ns", self, "ns")

	// overload: one admission pair in isolation, and the live gate.
	set("overload.admit_ns", admitPairNs(in.w.base.Deadline), "ns")
	var shed, qp95 float64
	if o0, o1 := in.st0.Overload, in.st1.Overload; o0 != nil && o1 != nil {
		shed = float64((o1.ShedHopeless + o1.ShedOverload + o1.ShedDeadline + o1.ShedDraining) -
			(o0.ShedHopeless + o0.ShedOverload + o0.ShedDeadline + o0.ShedDraining))
		qp95 = us(o1.QueueDelayP95)
	}
	set("overload.queue_delay_p95_us", qp95, "us")
	set("overload.rejected", shed, "count")

	// client: the traced window's round trips.
	var dRTT, oRTT []time.Duration
	if in.transport != "inproc" {
		dRTT = append(append(dRTT, in.spans.decide...), in.spans.first...)
		oRTT = in.spans.observe
	}
	set("client.decide_rtt_p50_us", us(quantile(dRTT, 0.5)), "us")
	set("client.decide_rtt_p99_us", us(quantile(dRTT, 0.99)), "us")
	set("client.observe_rtt_p50_us", us(quantile(oRTT, 0.5)), "us")
	set("client.observe_rtt_p99_us", us(quantile(oRTT, 0.99)), "us")
	set("client.retries", max(shed-float64(in.overloadFails), 0), "count")
	set("client.conns_opened", float64(in.connsOpened), "count")

	// harness health.
	// The ledger splits the traced window's pooled p50, the figure its
	// parts' pooled medians describe.
	loopP50 := in.traced.pooledP50
	step := quantile(in.spans.step, 0.5)
	set("sim.step_ns", ns(step), "ns")
	set("bench.trace_overhead_us", us(in.traced.p50-in.untraced.p50), "us")
	sum := rtt + step
	if in.observeAll {
		sum += quantile(in.spans.observe, 0.5)
	}
	residual := loopP50 - sum
	set("bench.ledger_residual_us", us(residual), "us")
	note := ""
	if in.observeAll {
		share := float64(residual) / float64(max(loopP50, 1))
		note = fmt.Sprintf("ledger: loop p50 %.1fus = decide %.1fus + sim %.1fus + observe %.1fus + residual %.1fus (%.1f%%, tolerance %.0f%%)",
			us(loopP50), us(rtt), us(step), us(quantile(in.spans.observe, 0.5)), us(residual), 100*share, 100*ledgerTolerance)
		if share > ledgerTolerance || share < -ledgerTolerance {
			return m, note, fmt.Errorf("the ledger does not balance: %s", note)
		}
	}
	return m, note, nil
}

// windowAvg turns two lifetime averages into the average over the calls
// between them.
func windowAvg(avg0 time.Duration, n0 int64, avg1 time.Duration, n1 int64) float64 {
	if n1 <= n0 {
		return 0
	}
	return (float64(avg1)*float64(n1) - float64(avg0)*float64(n0)) / float64(n1-n0)
}

// coreTiming holds per-call core timings. A decide is cached when the
// session's filter epoch has not moved since its previous decide.
type coreTiming struct {
	uncached, cached, observe []time.Duration
	decides, hits             int
}

// coreReplay replays the sampled inputs through fresh core sessions, one
// per stream life, timing each Decide and Observe.
func coreReplay(w *world, sample []replayed) coreTiming {
	var c coreTiming
	eng := core.NewEngine(w.prof, core.DefaultOptions())
	sessions := map[int]*core.Session{}
	epochs := map[int]uint64{}
	for _, in := range sample {
		s := sessions[in.stream]
		if s == nil || in.first {
			s = eng.NewSession()
			sessions[in.stream] = s
		}
		fresh := s.Decisions() == 0
		t0 := time.Now()
		s.Decide(in.spec)
		el := time.Since(t0)
		c.decides++
		if !fresh && s.FilterEpoch() == epochs[in.stream] {
			c.hits++
			c.cached = append(c.cached, el)
		} else {
			c.uncached = append(c.uncached, el)
		}
		epochs[in.stream] = s.FilterEpoch()
		if in.observed {
			if o, ok := outcomeOf(w.prof, in.feedback); ok {
				t0 = time.Now()
				s.Observe(o)
				c.observe = append(c.observe, time.Since(t0))
			}
		}
		if in.last {
			delete(sessions, in.stream)
		}
	}
	return c
}

// serveTimes are per-call timings of the alert.Server API.
type serveTimes struct {
	decide, first, observe, evict []time.Duration
	bytesPerStream                float64
}

// serveReplay replays the sampled inputs through a fresh in-process
// alert.Server, one stream after another, and checks it decides what the
// oracle did. Observe is asynchronous, so its time is the enqueue; the
// update is applied ahead of the stream's next decide.
func serveReplay(w *world, sample []replayed) (serveTimes, error) {
	var t serveTimes
	srv, err := alert.NewServer(w.plat, alert.ImageCandidates(), alert.ServerOptions{})
	if err != nil {
		return t, err
	}
	defer srv.Close()
	for _, in := range sample {
		t0 := time.Now()
		d, _ := srv.Decide(in.stream, in.spec)
		el := time.Since(t0)
		if !sameDecision(d, in.decision) {
			return t, fmt.Errorf("serve replay of stream %d decided %s, oracle %s", in.stream, token(d), token(in.decision))
		}
		if in.first {
			t.first = append(t.first, el)
		} else {
			t.decide = append(t.decide, el)
		}
		if in.observed {
			t0 = time.Now()
			srv.Observe(in.stream, in.feedback)
			t.observe = append(t.observe, time.Since(t0))
		}
		if in.last {
			if st := srv.Stats(); st.Streams > 0 {
				t.bytesPerStream = float64(st.SessionBytes) / float64(st.Streams)
			}
			t0 = time.Now()
			srv.EvictStream(in.stream)
			t.evict = append(t.evict, time.Since(t0))
		}
	}
	return t, nil
}

// binwireCosts are the codec replay's per-input figures.
type binwireCosts struct {
	encodeNs, decodeNs, frameBytes float64
	decideCodecNs                  float64 // decide request + response, encode and decode
}

// binwireReplay encodes and decodes every frame the sampled inputs
// exchange over binwire: the decide request and response, and the observe
// request and response where feedback was sent.
func binwireReplay(sample []replayed) (binwireCosts, error) {
	var c binwireCosts
	if len(sample) == 0 {
		return c, nil
	}
	encode := func(dst []byte, in replayed, decideOnly bool) []byte {
		dst = binwire.AppendDecide(dst, 1, in.stream, in.spec)
		dst = binwire.AppendDecideResp(dst, 1, in.decision, in.estimate, "")
		if in.observed && !decideOnly {
			dst = binwire.AppendObserve(dst, 2, in.stream, in.feedback)
			dst = binwire.AppendObserveResp(dst, 2)
		}
		return dst
	}
	decode := func(data []byte) error {
		for len(data) > 0 {
			f, n, err := binwire.ParseFrame(data)
			if err != nil {
				return err
			}
			data = data[n:]
			switch f.Type {
			case binwire.MsgDecide:
				_, _, err = binwire.DecodeDecide(f.Body)
			case binwire.MsgDecideResp:
				_, _, _, err = binwire.DecodeDecideResp(f.Body)
			case binwire.MsgObserve:
				_, _, err = binwire.DecodeObserve(f.Body)
			case binwire.MsgObserveResp:
				err = binwire.DecodeObserveResp(f.Body)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	var decodeErr error
	perInput := func(decideOnly bool) (enc, dec, size float64) {
		var all []byte
		for _, in := range sample {
			all = encode(all, in, decideOnly)
		}
		buf := make([]byte, 0, 1024)
		var encT, decT []time.Duration
		for r := 0; r < codecReps; r++ {
			t0 := time.Now()
			for _, in := range sample {
				buf = encode(buf[:0], in, decideOnly)
			}
			encT = append(encT, time.Since(t0))
			t0 = time.Now()
			if err := decode(all); err != nil {
				decodeErr = fmt.Errorf("binwire replay: decoding frames just encoded: %w", err)
			}
			decT = append(decT, time.Since(t0))
		}
		n := float64(len(sample))
		return ns(quantile(encT, 0.5)) / n, ns(quantile(decT, 0.5)) / n, float64(len(all)) / n
	}
	c.encodeNs, c.decodeNs, c.frameBytes = perInput(false)
	enc, dec, _ := perInput(true)
	c.decideCodecNs = enc + dec
	return c, decodeErr
}

// jsonDecideCodecNs is the JSON codec's share of one /v1/decide: marshal
// and unmarshal of the request and the response.
func jsonDecideCodecNs(sample []replayed) float64 {
	if len(sample) == 0 {
		return 0
	}
	var ts []time.Duration
	for r := 0; r < codecReps; r++ {
		t0 := time.Now()
		for _, in := range sample {
			req, _ := json.Marshal(netserve.DecideRequest{Stream: in.stream, Spec: netserve.FromSpec(in.spec)})
			resp, _ := json.Marshal(netserve.DecideResponse{Decision: netserve.FromDecision(in.decision), Estimate: netserve.FromEstimate(in.estimate)})
			var dreq netserve.DecideRequest
			var dresp netserve.DecideResponse
			_ = json.Unmarshal(req, &dreq)
			_ = json.Unmarshal(resp, &dresp)
		}
		ts = append(ts, time.Since(t0))
	}
	return ns(quantile(ts, 0.5)) / float64(len(sample))
}

// admitPairNs times one TryAcquire+Release pair on an uncontended gate
// with alertserve's default limits.
func admitPairNs(deadlineS float64) float64 {
	const pairs = 100000
	g := overload.NewGate(overload.NewController(overload.Config{Inflight: 64, Queue: 128}))
	var ts []time.Duration
	for r := 0; r < codecReps; r++ {
		t0 := time.Now()
		for i := 0; i < pairs; i++ {
			if v, _ := g.TryAcquire(deadlineS); v == overload.GateAdmitted {
				g.Release()
			}
		}
		ts = append(ts, time.Since(t0))
	}
	return ns(quantile(ts, 0.5)) / pairs
}
