package main

import (
	"fmt"
	"math"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/scenario"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// traceLen is the compiled scenario length; streams cycle through it.
// 21500 inputs is a hundred cycles of the phased contention schedule.
const traceLen = 21500

// world is everything the input generator derives from the workload seed:
// the platform and candidate profile the server runs, the nominal spec,
// and the compiled scenario every stream replays.
type world struct {
	plat  *alert.Platform
	prof  *dnn.ProfileTable
	base  alert.Spec
	trace *scenario.Trace
	seed  int64
}

// newWorld compiles the named scenario for CPU1/image from the seed. The
// spec is the one cmd/alertload uses by default: minimize energy at
// accuracy 0.92 with a deadline of 1.25x the slowest candidate at full
// power.
func newWorld(scenarioName string, seed int64) (*world, error) {
	plat := alert.CPU1()
	models := alert.ImageCandidates()
	prof, err := dnn.Profile(plat, models)
	if err != nil {
		return nil, err
	}
	slowest := 0.0
	for _, m := range models {
		slowest = math.Max(slowest, m.RefLatency/plat.Speed(plat.PMax))
	}
	base := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 1.25 * slowest, AccuracyGoal: 0.92}
	sspec, err := scenario.ByName(scenarioName)
	if err != nil {
		return nil, err
	}
	tr, err := scenario.Compile(sspec, plat, traceLen, base.Deadline, seed)
	if err != nil {
		return nil, err
	}
	return &world{plat: plat, prof: prof, base: base, trace: tr, seed: seed}, nil
}

// mix derives an independent 63-bit seed from the workload seed and a
// tuple of small integers (splitmix64 finalizer per element).
func mix(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// offsetSource replays the scenario trace from a tick offset, so streams
// (short-lived ones too) sample every phase of the schedule.
type offsetSource struct {
	tr *scenario.Trace
	i  int
}

func (s *offsetSource) Next() contention.Effect {
	t := s.tr.At(s.i)
	s.i++
	return contention.Effect{Slowdown: t.Slowdown, ExtraPower: t.ExtraPowerW, Active: t.Active, CapLimitW: t.CapLimitW}
}

// stream is one inference stream's input generator and environment: it
// hands out the spec for each input and simulates running the decision the
// server returned. Its sequence is a pure function of its key, so the
// oracle can rebuild it after the run.
type stream struct {
	w    *world
	key  streamKey
	env  *sim.Env
	ins  *workload.ImageStream
	off  int
	cur  workload.Input
	spec alert.Spec
}

// streamKey identifies one stream life: the server-side stream id and,
// for churn, the life's place in its worker's schedule (ids come back).
type streamKey struct {
	id   int
	life int
}

func (w *world) newStream(k streamKey) *stream {
	s := mix(w.seed, int64(k.id), int64(k.life))
	st := &stream{w: w, key: k, ins: workload.NewImageStream(math.MaxInt32, s^0x5bd1e995),
		off: int(uint64(s) % uint64(w.trace.Len()))}
	st.env = sim.NewEnv(w.prof, &offsetSource{tr: w.trace, i: st.off}, s)
	return st
}

// next returns the spec for the stream's next input.
func (st *stream) next() alert.Spec {
	st.cur, _ = st.ins.Next()
	st.spec = st.w.trace.SpecFor(st.off+st.cur.ID, st.w.base)
	return st.spec
}

// step simulates executing the current input under d and returns the
// outcome and the feedback a caller reports for it.
func (st *stream) step(d alert.Decision) (sim.Outcome, alert.Feedback) {
	out := st.env.Step(sim.Decision{Model: d.Model, Cap: d.Cap, PlannedStop: d.PlannedStop, Overhead: d.Overhead},
		st.cur, st.spec.Deadline, st.spec.Deadline)
	return out, alert.Feedback{Decision: d, Latency: out.Latency, CompletedStage: out.Stage, IdlePowerW: out.IdlePower}
}

// served is what one stream life got back from the server, in order. A
// stream stops at its first failed request, so its decisions are those of
// a prefix of its inputs.
type served struct {
	key       streamKey
	decisions []alert.Decision
	// observeEvery is the feedback cadence: input i sends feedback iff
	// i%observeEvery == observeEvery-1 (1 = every input).
	observeEvery int
	// axes is how many of the life's first inputs the paper's axes cover;
	// the oracle simulates past the served prefix if needed, so the axes
	// cover the same inputs in every run of a seed.
	axes int
}

func (s *served) observes(i int) bool { return i%s.observeEvery == s.observeEvery-1 }

// axes are the paper's three evaluation axes over a fixed set of inputs.
type axes struct {
	n               int
	energy, quality float64
	misses          int
}

func (a *axes) merge(b axes) {
	a.n += b.n
	a.energy += b.energy
	a.quality += b.quality
	a.misses += b.misses
}

func (a *axes) add(out sim.Outcome) {
	a.n++
	a.energy += out.Energy
	a.quality += out.Quality
	if !out.DeadlineMet {
		a.misses++
	}
}

// replayed is one input as the solo oracle saw it, kept for the per-layer
// replays of a traced run.
type replayed struct {
	stream   int
	spec     alert.Spec
	decision alert.Decision
	estimate alert.Estimate
	feedback alert.Feedback
	observed bool
	first    bool // first input of its stream life
	last     bool // last recorded input of its stream life
}

// oracle replays one stream life through a solo core.Session, built from
// the same profile and default options as the server's engine, and checks
// the served decisions byte for byte. It keeps replaying past the served
// prefix until sv.axes inputs have been simulated. sample, when non-nil,
// receives up to sampleN of the served inputs as replayed.
func oracle(eng *core.Engine, w *world, sv *served, ax *axes, sample *[]replayed, sampleN int) error {
	st := w.newStream(sv.key)
	sess := eng.NewSession()
	for i := 0; i < max(len(sv.decisions), sv.axes); i++ {
		spec := st.next()
		cd, est := sess.Decide(spec)
		d := alert.Decision{Model: cd.Model, Cap: cd.Cap, CapW: w.prof.Caps[cd.Cap], PlannedStop: cd.PlannedStop, Overhead: cd.Overhead}
		if i < len(sv.decisions) && !sameDecision(sv.decisions[i], d) {
			return fmt.Errorf("stream %d life %d input %d: served %s, solo core.Session decided %s",
				sv.key.id, sv.key.life, i, token(sv.decisions[i]), token(d))
		}
		out, fb := st.step(d)
		if i < sv.axes {
			ax.add(out)
		}
		obs := sv.observes(i)
		if obs {
			if o, ok := outcomeOf(w.prof, fb); ok {
				sess.Observe(o)
			}
		}
		if sample != nil && len(*sample) < sampleN && i < len(sv.decisions) {
			*sample = append(*sample, replayed{stream: sv.key.id, spec: spec, decision: d, estimate: est,
				feedback: fb, observed: obs, first: i == 0, last: i == len(sv.decisions)-1})
		}
	}
	return nil
}

// outcomeOf converts feedback into the controller's observation exactly as
// alert.Server.Observe does: the observed slowdown is the measured latency
// over the profiled latency of the work that ran, and idle power is folded
// in only when measured.
func outcomeOf(prof *dnn.ProfileTable, fb alert.Feedback) (sim.Outcome, bool) {
	if fb.Latency <= 0 {
		return sim.Outcome{}, false
	}
	m := prof.Models[fb.Decision.Model]
	frac := 1.0
	if m.IsAnytime() && fb.CompletedStage >= 0 && fb.CompletedStage < len(m.Stages) {
		frac = m.Stages[fb.CompletedStage].LatencyFrac
	}
	nominal := prof.At(fb.Decision.Model, fb.Decision.Cap) * frac
	if nominal <= 0 {
		return sim.Outcome{}, false
	}
	out := sim.Outcome{ObservedXi: fb.Latency / nominal}
	if fb.IdlePowerW > 0 {
		out.IdlePower = fb.IdlePowerW
		out.CapApplied = fb.Decision.CapW
	}
	return out, true
}

func sameDecision(a, b alert.Decision) bool {
	return a.Model == b.Model && a.Cap == b.Cap &&
		math.Float64bits(a.CapW) == math.Float64bits(b.CapW) &&
		math.Float64bits(a.PlannedStop) == math.Float64bits(b.PlannedStop) &&
		math.Float64bits(a.Overhead) == math.Float64bits(b.Overhead)
}

// token renders a decision the way cmd/alertload's decision artifacts do.
func token(d alert.Decision) string {
	return fmt.Sprintf("%d,%d,%.17g,%.17g", d.Model, d.Cap, d.PlannedStop, d.Overhead)
}
