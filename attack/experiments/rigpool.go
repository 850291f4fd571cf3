package experiments

import (
	"sync"

	"microscope/attack/platform"
)

// rigPool hands out rigs restored to a common checkpoint. A sweep
// drawing trial rigs from the pool pays one platform boot per
// *concurrent worker* instead of one per trial; every get() restores
// the rig to the checkpoint first, so trial results are independent of
// which pooled rig served which trial (worker-count invariance).
type rigPool struct {
	cp *platform.Checkpoint
	mu sync.Mutex
	// pristine is a rig known to sit exactly at the checkpoint state
	// (the template the checkpoint was captured from); its first draw
	// skips the restore. Rigs returned after use go to free and are
	// restored on their next draw.
	pristine *platform.Rig
	free     []*platform.Rig
}

// newRigPool seeds the pool with the template rig the checkpoint was
// taken from, so single-worker sweeps never boot a second platform.
func newRigPool(cp *platform.Checkpoint, seed *platform.Rig) *rigPool {
	return &rigPool{cp: cp, pristine: seed}
}

func (p *rigPool) get() (*platform.Rig, error) {
	p.mu.Lock()
	if r := p.pristine; r != nil {
		p.pristine = nil
		p.mu.Unlock()
		return r, nil
	}
	var r *platform.Rig
	if n := len(p.free); n > 0 {
		r, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if r == nil {
		return p.cp.Boot()
	}
	if err := r.Restore(p.cp); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *rigPool) put(r *platform.Rig) {
	p.mu.Lock()
	p.free = append(p.free, r)
	p.mu.Unlock()
}
