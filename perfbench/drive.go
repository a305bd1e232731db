package main

import (
	"fmt"
	"sort"
	"time"
)

// epoch is the time origin for sample completion stamps.
var epoch = time.Now()

// phases splits a run by time: warm-up (0), measured windows 1..n, and
// past the end (n+1). An untraced run has one window; a traced run has an
// untraced window followed by a traced one of the same length, so the
// tracing overhead is measured on the same server in the same run.
type phases struct {
	bounds []time.Time // bounds[0] ends warm-up; bounds[k] ends window k
}

func newPhases(warmEnd time.Time, seconds int, traced bool) phases {
	total := time.Duration(seconds) * time.Second
	if !traced {
		return phases{bounds: []time.Time{warmEnd, warmEnd.Add(total)}}
	}
	return phases{bounds: []time.Time{warmEnd, warmEnd.Add(total / 2), warmEnd.Add(total)}}
}

func (p phases) of(t time.Time) int {
	for i, b := range p.bounds {
		if t.Before(b) {
			return i
		}
	}
	return len(p.bounds)
}

// tracedPhase is the window whose inputs record spans (none when untraced).
func (p phases) tracedPhase() int {
	if len(p.bounds) == 3 {
		return 2
	}
	return -1
}

// span is one traced input's breakdown: the span tree is input →
// decide | sim step | observe | evict.
type span struct {
	decide, step, observe, evict time.Duration
	observed, first              bool
}

// tailSlice is the sub-window length of the windowed tail percentile.
const tailSlice = time.Second

// reservoirCap is how many latencies a recorder keeps per slice. Past it,
// reservoir sampling keeps a uniform sample, so the generator's memory
// (part of churn-inproc's peak RSS) does not grow with the throughput it
// measures.
const reservoirCap = 16384

// reservoir is one slice's inputs: a uniform sample of its latencies, n
// counting them all, and the inputs attempted in the slice and those that
// met the latency limit.
type reservoir struct {
	n              int
	xs             []time.Duration
	attempted, met int
}

// window accumulates one measured window of one recorder.
type window struct {
	attempted, failed, completed, met int
	last                              time.Duration // latest completion, since epoch
	slices                            []reservoir
}

// recorder is one load goroutine's records: exact counts and sampled
// latencies per measured window, and the traced window's spans.
type recorder struct {
	slo   time.Duration
	wins  map[int]*window
	spans []span
	rng   uint64
}

func newRecorder(slo time.Duration) *recorder {
	return &recorder{slo: slo, wins: map[int]*window{}, rng: 0x9e3779b97f4a7c15}
}

// add records one input of the given phase; warm-up inputs are dropped.
func (r *recorder) add(p *phases, phase int, ok bool, loop time.Duration, end time.Time) {
	if phase < 1 || phase >= len(p.bounds) {
		return
	}
	w := r.wins[phase]
	if w == nil {
		w = &window{}
		r.wins[phase] = w
	}
	i := max(int(end.Sub(p.bounds[phase-1])/tailSlice), 0)
	for len(w.slices) <= i {
		w.slices = append(w.slices, reservoir{})
	}
	sl := &w.slices[i]
	w.attempted++
	sl.attempted++
	if !ok {
		w.failed++
		return
	}
	w.completed++
	if loop <= r.slo {
		w.met++
		sl.met++
	}
	w.last = max(w.last, end.Sub(epoch))
	sl.n++
	if len(sl.xs) < reservoirCap {
		sl.xs = append(sl.xs, loop)
		return
	}
	r.rng ^= r.rng << 13 // xorshift64
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % uint64(sl.n); j < reservoirCap {
		sl.xs[j] = loop
	}
}

// summary is one measured window over all recorders.
type summary struct {
	attempted, failed, completed, met int
	// p50, tail, throughput and attainment are medians over the window's
	// one-second slices; pooledP50 is the p50 of every input in the
	// window.
	p50, tail, pooledP50 time.Duration
	throughput           float64 // inputs completed per second
	attainment           float64 // share of attempted inputs that met the latency limit
	window               time.Duration
	sliceNote            string
}

// minSliceInputs is the fewest completions a slice needs to count: ten
// beyond its p99.
const minSliceInputs = 1000

// summarize folds window k of every recorder. Sampled latencies are
// weighted by how many inputs each sample stands for. The p50, the p99,
// the throughput and the SLO attainment are each the median over the
// window's whole one-second slices of that slice's figure, so a stall of
// the shared host that lasts a second or two moves those slices, not the
// run's figures.
// Slices with fewer than minSliceInputs completions are left out; with
// none left, the figures are taken over the whole window.
func summarize(recs []*recorder, p phases, k int) summary {
	var s summary
	var all []weighted
	var slices [][]weighted
	var counts, attempted, met []int
	var last time.Duration
	for _, rec := range recs {
		w := rec.wins[k]
		if w == nil {
			continue
		}
		s.attempted += w.attempted
		s.failed += w.failed
		s.completed += w.completed
		s.met += w.met
		last = max(last, w.last)
		for i, sl := range w.slices {
			for len(slices) <= i {
				slices, counts = append(slices, nil), append(counts, 0)
				attempted, met = append(attempted, 0), append(met, 0)
			}
			wt := float64(sl.n) / float64(max(len(sl.xs), 1))
			for _, x := range sl.xs {
				slices[i] = append(slices[i], weighted{x, wt})
				all = append(all, weighted{x, wt})
			}
			counts[i] += sl.n
			attempted[i] += sl.attempted
			met[i] += sl.met
		}
	}
	s.window = last - p.bounds[k-1].Sub(epoch)
	s.pooledP50 = weightedQuantile(all, 0.5)
	whole := int(p.bounds[k].Sub(p.bounds[k-1]) / tailSlice)
	var p50s, tails, rates, atts []float64
	for i, sl := range slices {
		if i < whole && counts[i] >= minSliceInputs {
			p50s = append(p50s, float64(weightedQuantile(sl, 0.5)))
			tails = append(tails, float64(weightedQuantile(sl, 0.99)))
			rates = append(rates, float64(counts[i])/tailSlice.Seconds())
			atts = append(atts, float64(met[i])/float64(attempted[i]))
		}
	}
	if len(p50s) == 0 {
		s.p50, s.tail = s.pooledP50, weightedQuantile(all, 0.99)
		s.throughput = float64(s.completed) / s.window.Seconds()
		s.attainment = float64(s.met) / float64(max(s.attempted, 1))
		return s
	}
	s.p50, s.tail = time.Duration(medianF(p50s)), time.Duration(medianF(tails))
	s.throughput, s.attainment = medianF(rates), medianF(atts)
	s.sliceNote = fmt.Sprintf("per %v slice (%d slices, min/median/max): loop p50 %s us, loop p99 %s us, throughput %s 1/s, slo attainment %s; pooled loop p50 %.1f us, pooled slo attainment %.5f",
		tailSlice, len(p50s), minMedMax(p50s, 1e3, "%.1f"), minMedMax(tails, 1e3, "%.1f"), minMedMax(rates, 1, "%.1f"), minMedMax(atts, 1, "%.5f"),
		us(s.pooledP50), float64(s.met)/float64(max(s.attempted, 1)))
	return s
}

// minMedMax renders the min, median and max of xs, each divided by scale
// and formatted with verb.
func minMedMax(xs []float64, scale float64, verb string) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf(verb+"/"+verb+"/"+verb, s[0]/scale, medianF(s)/scale, s[len(s)-1]/scale)
}

// spanStats holds the traced window's per-span timings.
type spanStats struct {
	decide, first, step, observe, evict []time.Duration
}

func collectSpans(recs []*recorder) spanStats {
	var s spanStats
	for _, rec := range recs {
		for _, x := range rec.spans {
			if x.first {
				s.first = append(s.first, x.decide)
			} else {
				s.decide = append(s.decide, x.decide)
			}
			s.step = append(s.step, x.step)
			if x.observed {
				s.observe = append(s.observe, x.observe)
			}
			if x.evict > 0 {
				s.evict = append(s.evict, x.evict)
			}
		}
	}
	return s
}
