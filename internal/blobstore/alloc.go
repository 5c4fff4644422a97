// Package blobstore implements the storage environment of the §4.3 case
// study: a hierarchical blob allocator over a pool of NVMe-oF backends
// (rack-scale mega blobs carved into local micro blobs), two-way
// replication across backends, a credit-driven IO rate limiter (inherent in
// the session gates), and a read load balancer that steers each read to the
// replica whose SSD currently advertises the most headroom.
package blobstore

import (
	"fmt"

	"gimbal/internal/nvme"
)

// Backend is one remote SSD reachable through a session.
type Backend struct {
	// Submit issues an IO to the remote SSD (a fabric session in the
	// experiments).
	Target interface{ Submit(io *nvme.IO) }
	// Headroom reports the flow-control headroom — the §4.3 load signal.
	Headroom func() int
	Capacity int64
}

// Config sizes the allocator. The paper uses 4GB mega blobs and 256KB
// micro blobs on 960GB drives; the defaults scale the mega blob to the
// simulated capacity while keeping the paper's micro blob granularity.
type Config struct {
	MegaBlobBytes  int64
	MicroBlobBytes int64
	Replicas       int // 1 = no replication, 2 = paper's primary+shadow
}

// DefaultConfig returns scaled allocator sizing.
func DefaultConfig() Config {
	return Config{MegaBlobBytes: 64 << 20, MicroBlobBytes: 256 << 10, Replicas: 2}
}

// Addr names a micro blob on a backend.
type Addr struct {
	Backend int
	Offset  int64
}

// Global is the rack-scale mega blob allocator: a bitmap per backend
// (§4.3 "global blob allocator ... divides total storage into mega blobs
// and uses a bitmap mechanism to maintain availability"). It is shared by
// every client of the rack; clients reach the devices through their own
// per-tenant sessions (the Local agent's backends).
type Global struct {
	cfg     Config
	nback   int
	bitmaps [][]uint64 // per backend, 1 bit per mega blob (1 = allocated)
	megas   []int      // mega blobs per backend
	freeCnt []int
}

// NewGlobal builds the global allocator over devices of the given
// capacities.
func NewGlobal(cfg Config, capacities []int64) *Global {
	g := &Global{cfg: cfg, nback: len(capacities)}
	for _, cap := range capacities {
		n := int(cap / cfg.MegaBlobBytes)
		g.megas = append(g.megas, n)
		g.bitmaps = append(g.bitmaps, make([]uint64, (n+63)/64))
		g.freeCnt = append(g.freeCnt, n)
	}
	return g
}

// FreeMegas returns the free mega blob count on a backend.
func (g *Global) FreeMegas(backend int) int { return g.freeCnt[backend] }

// AllocMega reserves one mega blob on the given backend, returning its
// byte offset.
func (g *Global) AllocMega(backend int) (int64, error) {
	bm := g.bitmaps[backend]
	for w := range bm {
		if bm[w] == ^uint64(0) {
			continue
		}
		for bit := 0; bit < 64; bit++ {
			idx := w*64 + bit
			if idx >= g.megas[backend] {
				break
			}
			if bm[w]&(1<<bit) == 0 {
				bm[w] |= 1 << bit
				g.freeCnt[backend]--
				return int64(idx) * g.cfg.MegaBlobBytes, nil
			}
		}
	}
	return 0, fmt.Errorf("blobstore: backend %d out of mega blobs", backend)
}

// Avoid is a reusable backend-exclusion set for Alloc: generation-stamped
// membership over the dense backend index. The replica-placement loop (and
// the volume control plane's churn path) calls Alloc once per span; a
// per-call map literal there is an allocation on a hot path, so callers
// keep one Avoid and Reset it instead.
type Avoid struct {
	stamp []uint32
	gen   uint32
}

// Reset empties the set for a pool of n backends. The backing array grows
// once and is reused afterwards.
func (a *Avoid) Reset(n int) {
	if len(a.stamp) < n {
		a.stamp = make([]uint32, n)
		a.gen = 1
		return
	}
	a.gen++
	if a.gen == 0 { // generation wrapped: clear stale stamps
		for i := range a.stamp {
			a.stamp[i] = 0
		}
		a.gen = 1
	}
}

// Add excludes backend i. Reset must have covered i.
func (a *Avoid) Add(i int) { a.stamp[i] = a.gen }

// Has reports whether backend i is excluded. A nil (or never-Reset) Avoid
// excludes nothing.
func (a *Avoid) Has(i int) bool {
	return a != nil && a.gen != 0 && i < len(a.stamp) && a.stamp[i] == a.gen
}

// Local is a client's micro blob agent: it carves mega blobs obtained from
// the global allocator into micro blobs, maintaining a per-backend free
// list and triggering the global allocator when a pool runs dry.
type Local struct {
	cfg      Config
	global   *Global
	backends []*Backend // this client's sessions, one per device
	free     [][]int64  // per backend: free micro blob offsets
}

// NewLocal returns an agent over the global allocator using the client's
// own device sessions (len(backends) must match the global's device count).
func NewLocal(global *Global, backends []*Backend) *Local {
	if len(backends) != global.nback {
		panic("blobstore: backend count mismatch with global allocator")
	}
	return &Local{
		cfg:      global.cfg,
		global:   global,
		backends: backends,
		free:     make([][]int64, len(backends)),
	}
}

// Backends returns the client's device sessions.
func (l *Local) Backends() []*Backend { return l.backends }

// Config returns the allocator sizing the agent was built over.
func (l *Local) Config() Config { return l.cfg }

// Global returns the rack-scale allocator the agent draws from.
func (l *Local) Global() *Global { return l.global }

// FreeMicros returns the local free micro blob count for a backend.
func (l *Local) FreeMicros(backend int) int { return len(l.free[backend]) }

// Alloc reserves one micro blob, preferring the least-loaded backend
// (maximum credit headroom, §4.3) and excluding any backends in `avoid`
// (used to place a replica away from its primary). avoid may be nil; a
// non-nil Avoid is caller-owned scratch, reusable across calls via Reset.
func (l *Local) Alloc(avoid *Avoid) (Addr, error) {
	best := -1
	bestHead := -1
	for i, b := range l.backends {
		if avoid.Has(i) {
			continue
		}
		if len(l.free[i]) == 0 && l.global.FreeMegas(i) == 0 {
			continue
		}
		h := b.Headroom()
		if h > bestHead {
			best, bestHead = i, h
		}
	}
	if best < 0 {
		return Addr{}, fmt.Errorf("blobstore: no backend with free space")
	}
	if len(l.free[best]) == 0 {
		base, err := l.global.AllocMega(best)
		if err != nil {
			return Addr{}, err
		}
		for off := base; off < base+l.cfg.MegaBlobBytes; off += l.cfg.MicroBlobBytes {
			l.free[best] = append(l.free[best], off)
		}
	}
	n := len(l.free[best])
	off := l.free[best][n-1]
	l.free[best] = l.free[best][:n-1]
	return Addr{Backend: best, Offset: off}, nil
}

// Free returns a micro blob to the local pool. (Mega blob reclamation back
// to the global allocator is intentionally lazy, as in the paper.)
func (l *Local) Free(a Addr) {
	l.free[a.Backend] = append(l.free[a.Backend], a.Offset)
}
