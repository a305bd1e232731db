package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/core"
)

const (
	chWorkers    = 2
	chActive     = 64      // stream lives each worker interleaves
	chTable      = 10000   // finished lives each worker leaves in the table before evicting the oldest
	chLifeInputs = 8       // inputs per stream life
	chPopulation = 1 << 24 // stream ids are drawn from this many
	chSLO        = 80 * time.Microsecond
	// chCheckpoint is how often a worker stamps its running decision
	// hash, so a mismatch can be located.
	chCheckpoint = 1 << 16
)

// churnLife is one stream life in progress.
type churnLife struct {
	st   *stream
	n    int           // inputs so far
	axes bool          // one of the worker's first chTable lives: counted in the paper's axes
	sess *core.Session // the oracle's solo session
}

// churnSchedule is one worker's schedule: which life each input belongs
// to, which id a new life takes, and which finished life is evicted. It is
// a pure function of the seed and the worker index, so the oracle walks
// the same schedule the worker drove.
type churnSchedule struct {
	w      *world
	g      int
	rng    *rand.Rand
	live   map[int]bool // ids started and not yet evicted
	active [chActive]*churnLife
	fifo   []int
	j      int // inputs handed out
	lives  int // lives started
	ended  int // lives finished
}

func newChurnSchedule(w *world, g int) *churnSchedule {
	return &churnSchedule{w: w, g: g, rng: rand.New(rand.NewSource(mix(w.seed, 'c', int64(g)))),
		live: map[int]bool{}}
}

// next returns the slot and life of the next input, starting a new life
// with a fresh id in an empty slot.
func (cs *churnSchedule) next() (int, *churnLife) {
	slot := cs.j % chActive
	cs.j++
	if l := cs.active[slot]; l != nil {
		return slot, l
	}
	var id int
	for {
		id = int(cs.rng.Int63n(chPopulation/chWorkers))*chWorkers + cs.g
		if !cs.live[id] {
			break
		}
	}
	cs.live[id] = true
	// The life's inputs are seeded by its place in the schedule, so an id
	// that comes back after eviction starts a new input sequence.
	l := &churnLife{st: cs.w.newStream(streamKey{id: id, life: cs.lives}), axes: cs.lives < chTable}
	cs.lives++
	cs.active[slot] = l
	return slot, l
}

// done closes the slot's input. When that ends its life, the life joins
// the finished queue, and once chTable newer lives have finished the
// oldest one is returned for eviction.
func (cs *churnSchedule) done(slot int) (evict int, ok bool) {
	l := cs.active[slot]
	if l.n++; l.n < chLifeInputs {
		return 0, false
	}
	cs.active[slot] = nil
	cs.ended++
	cs.fifo = append(cs.fifo, l.st.key.id)
	if len(cs.fifo) <= chTable {
		return 0, false
	}
	evict, cs.fifo = cs.fifo[0], cs.fifo[1:]
	delete(cs.live, evict)
	return evict, true
}

// warm reports whether the table is still filling.
func (cs *churnSchedule) warm() bool { return len(cs.fifo) < chTable }

// decisionHash is a running 64-bit FNV-1a hash over a decision
// sequence's bytes: model, cap, and the float bits of cap watts, planned
// stop and overhead.
type decisionHash struct{ h uint64 }

func newDecisionHash() decisionHash { return decisionHash{h: 14695981039346656037} }

func (dh *decisionHash) add(d alert.Decision) {
	for _, v := range [5]uint64{uint64(d.Model), uint64(d.Cap), math.Float64bits(d.CapW),
		math.Float64bits(d.PlannedStop), math.Float64bits(d.Overhead)} {
		for k := 0; k < 64; k += 8 {
			dh.h ^= (v >> k) & 0xff
			dh.h *= 1099511628211
		}
	}
}

// churnWorker is one closed-loop caller of the in-process server. It keeps
// a running hash of the decisions it was served, not the decisions
// themselves, so its memory does not grow with throughput.
type churnWorker struct {
	cs          *churnSchedule
	srv         *alert.Server
	rec         *recorder
	hash        decisionHash
	checkpoints []uint64
}

// drive warms the table up to chTable finished lives, reports ready and
// waits for the window clock, then runs until the last window closes.
func (cw *churnWorker) drive(ready *sync.WaitGroup, startC <-chan struct{}, p *phases) {
	traced := -1
	for {
		slot, l := cw.cs.next()
		spec := l.st.next()
		t1 := time.Now()
		ph := 0
		if !cw.cs.warm() {
			if ph = p.of(t1); ph == len(p.bounds) {
				cw.cs.j-- // the input was never sent
				return
			}
		}
		id := l.st.key.id
		first := l.n == 0
		d, _ := cw.srv.Decide(id, spec)
		if cw.hash.add(d); cw.cs.j%chCheckpoint == 0 {
			cw.checkpoints = append(cw.checkpoints, cw.hash.h)
		}
		t2 := time.Now()
		_, fb := l.st.step(d)
		t3 := time.Now()
		cw.srv.Observe(id, fb)
		t4 := time.Now()
		wasWarm := cw.cs.warm()
		var evict time.Duration
		if old, ok := cw.cs.done(slot); ok {
			cw.srv.EvictStream(old)
			evict = time.Since(t4)
		}
		end := time.Now()
		cw.rec.add(p, ph, true, end.Sub(t1), end)
		if ph == traced {
			cw.rec.spans = append(cw.rec.spans, span{decide: t2.Sub(t1), step: t3.Sub(t2), observe: t4.Sub(t3),
				evict: evict, observed: true, first: first})
		}
		if wasWarm && !cw.cs.warm() {
			ready.Done()
			<-startC
			traced = p.tracedPhase()
		}
	}
}

// verifyChurn walks worker cw's schedule through solo core.Sessions for
// the inputs it was served and compares the decision hashes at every
// checkpoint and at the end. It sums the paper's axes over the worker's
// first chTable lives and, when sample is non-nil, keeps the first
// layerSampleN inputs for the per-layer replays.
func verifyChurn(w *world, cw *churnWorker, ax *axes, sample *[]replayed) error {
	eng := core.NewEngine(w.prof, core.DefaultOptions())
	cs := newChurnSchedule(w, cw.cs.g)
	h := newDecisionHash()
	served := cw.cs.j
	for i := 0; i < served || cs.ended < chTable; i++ {
		slot, l := cs.next()
		if l.sess == nil {
			l.sess = eng.NewSession()
		}
		spec := l.st.next()
		cd, est := l.sess.Decide(spec)
		d := alert.Decision{Model: cd.Model, Cap: cd.Cap, CapW: w.prof.Caps[cd.Cap], PlannedStop: cd.PlannedStop, Overhead: cd.Overhead}
		out, fb := l.st.step(d)
		if l.axes {
			ax.add(out)
		}
		if o, ok := outcomeOf(w.prof, fb); ok {
			l.sess.Observe(o)
		}
		if i < served {
			h.add(d)
			if n := i + 1; n%chCheckpoint == 0 && h.h != cw.checkpoints[n/chCheckpoint-1] {
				return fmt.Errorf("churn worker %d: served decisions diverge from the solo core.Session replay within inputs %d..%d",
					cw.cs.g, n-chCheckpoint, n)
			}
			if sample != nil && len(*sample) < layerSampleN {
				*sample = append(*sample, replayed{stream: l.st.key.id, spec: spec, decision: d, estimate: est,
					feedback: fb, observed: true, first: l.n == 0, last: l.n == chLifeInputs-1})
			}
		}
		cs.done(slot)
	}
	if h.h != cw.hash.h {
		return fmt.Errorf("churn worker %d: served decisions diverge from the solo core.Session replay after input %d",
			cw.cs.g, served/chCheckpoint*chCheckpoint)
	}
	return nil
}

// runChurn drives an in-process alert.Server through session churn: each
// worker interleaves chActive stream lives of chLifeInputs inputs, and
// evicts a finished life once chTable newer ones have finished, so the
// table holds about chWorkers*chTable sessions drawn from a much larger id
// population.
func runChurn(cfg config) (*runData, error) {
	w, err := newWorld("phased", cfg.seed)
	if err != nil {
		return nil, err
	}
	var setup []float64
	var srv *alert.Server
	for i := 0; i < setupLaunches; i++ {
		t0 := time.Now()
		s, err := alert.NewServer(w.plat, alert.ImageCandidates(), alert.ServerOptions{})
		if err != nil {
			return nil, err
		}
		s.Decide(setupStream, w.base)
		setup = append(setup, time.Since(t0).Seconds())
		s.EvictStream(setupStream)
		if i < setupLaunches-1 {
			s.Close()
		} else {
			srv = s
		}
	}
	defer srv.Close()

	workers := make([]*churnWorker, chWorkers)
	var ready, done sync.WaitGroup
	startC := make(chan struct{})
	var p phases
	for g := range workers {
		workers[g] = &churnWorker{cs: newChurnSchedule(w, g), srv: srv, rec: newRecorder(chSLO), hash: newDecisionHash()}
		ready.Add(1)
		done.Add(1)
		go func(cw *churnWorker) {
			defer done.Done()
			cw.drive(&ready, startC, &p)
		}(workers[g])
	}
	ready.Wait()
	p = newPhases(time.Now(), cfg.seconds, cfg.trace)
	close(startC)
	done.Wait()

	r := &runData{setup: setup}
	if r.rssMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	stats := srv.Stats()
	recs := make([]*recorder, chWorkers)
	parts := make([]axes, chWorkers)
	errs := make([]error, chWorkers)
	var sample []replayed
	var wg sync.WaitGroup
	for g, cw := range workers {
		recs[g] = cw.rec
		var sp *[]replayed
		if cfg.trace && g == 0 {
			sp = &sample
		}
		wg.Add(1)
		go func(g int, cw *churnWorker) {
			defer wg.Done()
			errs[g] = verifyChurn(w, cw, &parts[g], sp)
		}(g, cw)
	}
	wg.Wait()
	for g := range workers {
		r.axes.merge(parts[g])
		if errs[g] != nil && r.mismatch == nil {
			r.mismatch = errs[g]
		}
	}
	r.sum = summarize(recs, p, 1)
	if !cfg.trace || r.mismatch != nil {
		return r, nil
	}
	li := layerInput{w: w, sample: sample, spans: collectSpans(recs), transport: "inproc", inproc: stats,
		untraced: r.sum, traced: summarize(recs, p, p.tracedPhase())}
	r.layers, r.note, err = layerMetrics(li)
	return r, err
}
