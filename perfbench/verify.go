package main

import (
	"errors"
	"sync"

	"github.com/alert-project/alert/internal/core"
)

// layerSampleN bounds the inputs kept for the per-layer replays.
const layerSampleN = 20000

// verified is the outcome of replaying every recorded stream life.
type verified struct {
	axes     axes
	sample   []replayed
	mismatch error
}

// verify replays every stream life through solo core.Sessions on two
// goroutines, checks the served decisions byte for byte, and sums the
// paper's axes over each life's first axes inputs. A traced run also keeps
// a sample of replayed inputs for the per-layer replays.
func verify(w *world, lives []*served, traced bool) verified {
	eng := core.NewEngine(w.prof, core.DefaultOptions())
	const workers = 2
	parts := make([]verified, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := &parts[g]
			for i := g; i < len(lives); i += workers {
				var sample *[]replayed
				if traced && g == 0 {
					sample = &v.sample
				}
				if err := oracle(eng, w, lives[i], &v.axes, sample, layerSampleN); err != nil {
					v.mismatch = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var v verified
	var errs []error
	for _, p := range parts {
		v.axes.merge(p.axes)
		v.sample = append(v.sample, p.sample...)
		if p.mismatch != nil {
			errs = append(errs, p.mismatch)
		}
	}
	v.mismatch = errors.Join(errs...)
	return v
}
