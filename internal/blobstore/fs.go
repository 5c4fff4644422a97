package blobstore

import (
	"fmt"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// FS is the blob file system one database instance mounts: files are
// sequences of micro blobs, each replicated on two distinct backends, with
// reads steered to the replica whose SSD advertises the most credit
// headroom (§4.3). All IO methods run inside cooperative simulation
// processes and block the calling process until completion.
type FS struct {
	cfg   Config
	local *Local
	avoid Avoid // reusable replica-placement scratch for extend

	// Balance enables the read load balancer; without it reads always hit
	// the primary replica (the Fig 13 "Vanilla+FC" configuration).
	Balance bool

	// Stats.
	Reads, Writes       int64
	ReadBytes, WrBytes  int64
	BalancedToSecondary int64
	ReadFailovers       int64 // reads retried on another replica after a media error
	ReadFailures        int64 // reads that failed on every replica
	DegradedWrites      int64 // chunk writes where a replica failed
}

// NewFS mounts a file system over the allocator agent.
func NewFS(cfg Config, local *Local) *FS {
	return &FS{cfg: cfg, local: local, Balance: true}
}

// span is one replicated micro blob of a file.
type span struct {
	replicas []Addr // primary first
}

// File is a replicated blob file (an SSTable or WAL segment in the case
// study). Files are append-only then read-only, like LSM artifacts.
type File struct {
	fs    *FS
	name  string
	size  int64
	spans []span
}

// Create allocates an empty file.
func (fs *FS) Create(name string) *File {
	return &File{fs: fs, name: name}
}

// Size returns the bytes appended so far.
func (f *File) Size() int64 { return f.size }

// extend allocates replicated spans to cover size bytes beyond the current
// allocation.
func (f *File) extend(newSize int64) error {
	micro := f.fs.cfg.MicroBlobBytes
	for int64(len(f.spans))*micro < newSize {
		var sp span
		f.fs.avoid.Reset(len(f.fs.local.backends))
		for r := 0; r < f.fs.cfg.Replicas; r++ {
			a, err := f.fs.local.Alloc(&f.fs.avoid)
			if err != nil {
				if r == 0 {
					return err
				}
				// Degraded: replica placement impossible (single backend);
				// keep the primary only.
				break
			}
			f.fs.avoid.Add(a.Backend)
			sp.replicas = append(sp.replicas, a)
		}
		f.spans = append(f.spans, sp)
	}
	return nil
}

// ioRange maps a file range onto per-span device ranges.
type ioRange struct {
	spanIdx int
	off     int64 // within the span
	n       int
}

func (f *File) ranges(off int64, n int) []ioRange {
	micro := f.fs.cfg.MicroBlobBytes
	var out []ioRange
	for n > 0 {
		si := off / micro
		so := off % micro
		chunk := micro - so
		if int64(n) < chunk {
			chunk = int64(n)
		}
		out = append(out, ioRange{spanIdx: int(si), off: so, n: int(chunk)})
		off += chunk
		n -= int(chunk)
	}
	return out
}

// Append writes n bytes at the end of the file, replicated to every
// replica of each span; it parks p until all writes complete (§4.3: "a
// write operation ... is completed only when the two writes finish").
// n must be a multiple of 4KB (the LSM layer pads its artifacts).
func (f *File) Append(p *sim.Proc, n int) error {
	if n <= 0 || n%4096 != 0 {
		return fmt.Errorf("blobstore: append of %d bytes not 4KB aligned", n)
	}
	off := f.size
	if err := f.extend(off + int64(n)); err != nil {
		return err
	}
	f.size += int64(n)
	var gates []*sim.Gate
	for _, r := range f.ranges(off, n) {
		gates = append(gates, f.writeChunk(f.spans[r.spanIdx], r.off, r.n))
	}
	f.fs.Writes++
	f.fs.WrBytes += int64(n)
	for _, g := range gates {
		if st := g.Wait(p).(nvme.Status); st != nvme.StatusOK {
			return fmt.Errorf("blobstore: append to %s failed on every replica (status %#x)", f.name, uint16(st))
		}
	}
	return nil
}

// writeChunk writes one chunk to every replica; the gate fires StatusOK if
// at least one replica persisted it (a lost replica degrades redundancy,
// counted in DegradedWrites), and the last error status if all failed.
func (f *File) writeChunk(sp span, off int64, n int) *sim.Gate {
	g := &sim.Gate{}
	remaining := len(sp.replicas)
	okCount := 0
	var last nvme.Status
	for _, addr := range sp.replicas {
		addr := addr
		f.fs.submitIO(addr.Backend, nvme.OpWrite, addr.Offset+off, n, func(st nvme.Status) {
			remaining--
			if st == nvme.StatusOK {
				okCount++
			} else {
				f.fs.DegradedWrites++
			}
			last = st
			if remaining == 0 {
				if okCount > 0 {
					g.Fire(nvme.StatusOK)
				} else {
					g.Fire(last)
				}
			}
		})
	}
	return g
}

// ReadAt reads n bytes at off, parking p until all chunks arrive. Each
// chunk is steered to the replica with the most credit headroom when
// balancing is on.
func (f *File) ReadAt(p *sim.Proc, off int64, n int) error {
	if off < 0 || off+int64(n) > f.size {
		return fmt.Errorf("blobstore: read [%d, %d) beyond size %d of %s", off, off+int64(n), f.size, f.name)
	}
	if n <= 0 || n%4096 != 0 || off%4096 != 0 {
		return fmt.Errorf("blobstore: unaligned read off=%d n=%d", off, n)
	}
	var gates []*sim.Gate
	for _, r := range f.ranges(off, n) {
		gates = append(gates, f.readChunk(f.spans[r.spanIdx], r.off, r.n))
	}
	f.fs.Reads++
	f.fs.ReadBytes += int64(n)
	for _, g := range gates {
		if st := g.Wait(p).(nvme.Status); st != nvme.StatusOK {
			return fmt.Errorf("blobstore: read of %s failed on every replica (status %#x)", f.name, uint16(st))
		}
	}
	return nil
}

// readChunk reads one chunk, preferring the least-loaded replica and
// failing over to the others on a media error (§4.3's replication
// tolerating flash failures).
func (f *File) readChunk(sp span, off int64, n int) *sim.Gate {
	g := &sim.Gate{}
	order := f.replicaOrder(sp)
	var try func(i int)
	try = func(i int) {
		addr := order[i]
		f.fs.submitIO(addr.Backend, nvme.OpRead, addr.Offset+off, n, func(st nvme.Status) {
			if st == nvme.StatusOK {
				if i > 0 {
					f.fs.ReadFailovers++
				}
				g.Fire(nvme.StatusOK)
				return
			}
			if i+1 < len(order) {
				try(i + 1)
				return
			}
			f.fs.ReadFailures++
			g.Fire(st)
		})
	}
	try(0)
	return g
}

// replicaOrder returns the replicas in read preference order: the
// least-loaded first (when balancing), then the rest as failover targets.
func (f *File) replicaOrder(sp span) []Addr {
	if len(sp.replicas) == 1 {
		return sp.replicas
	}
	first := f.pickReplica(sp)
	out := make([]Addr, 0, len(sp.replicas))
	out = append(out, first)
	for _, a := range sp.replicas {
		if a != first {
			out = append(out, a)
		}
	}
	return out
}

// pickReplica chooses the least-loaded replica by credit headroom.
func (f *File) pickReplica(sp span) Addr {
	if !f.fs.Balance || len(sp.replicas) == 1 {
		return sp.replicas[0]
	}
	best := sp.replicas[0]
	bestHead := f.fs.local.backends[best.Backend].Headroom()
	for _, a := range sp.replicas[1:] {
		if h := f.fs.local.backends[a.Backend].Headroom(); h > bestHead {
			best, bestHead = a, h
			f.fs.BalancedToSecondary++
		}
	}
	return best
}

// Delete frees every span (both replicas) and trims the device ranges.
func (f *File) Delete() {
	for _, sp := range f.spans {
		for _, addr := range sp.replicas {
			f.fs.trim(addr)
			f.fs.local.Free(addr)
		}
	}
	f.spans = nil
	f.size = 0
}

// submitIO issues one async IO, delivering the completion status to done.
func (fs *FS) submitIO(backend int, op nvme.Opcode, off int64, n int, done func(nvme.Status)) {
	io := &nvme.IO{
		Op:     op,
		Offset: off,
		Size:   n,
		Done: func(_ *nvme.IO, cpl nvme.Completion) {
			done(cpl.Status)
		},
	}
	fs.local.backends[backend].Target.Submit(io)
}

// trim deallocates a micro blob on the device (fire and forget).
func (fs *FS) trim(a Addr) {
	io := &nvme.IO{
		Op:     nvme.OpTrim,
		Offset: a.Offset,
		Size:   int(fs.cfg.MicroBlobBytes),
		Done:   func(*nvme.IO, nvme.Completion) {},
	}
	fs.local.backends[a.Backend].Target.Submit(io)
}
