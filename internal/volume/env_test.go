package volume

import (
	"testing"

	"gimbal/internal/blobstore"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// env is a miniature JBOF for data-path tests: per-backend byte stores
// stand in for the SSDs, and a shadow of every span's content is kept
// current by the manager's OnCopy hook, so logical read-back through the
// mapping layer can be compared byte-for-byte against flat volumes.
type env struct {
	t       *testing.T
	loop    *sim.Loop
	local   *blobstore.Local
	m       *Manager
	devs    []*fakeDev
	payload map[*nvme.IO][]byte // write sources / read destinations
}

// fakeDev is one backend: completes after a fixed delay, moves registered
// payload bytes, zeroes trimmed ranges (so use-after-free reads show up),
// and counts trims.
type fakeDev struct {
	e     *env
	idx   int
	delay int64
	disk  []byte
	head  int
	subs  int
	trims int
}

func (f *fakeDev) Submit(io *nvme.IO) {
	f.subs++
	switch io.Op {
	case nvme.OpWrite:
		if p, ok := f.e.payload[io]; ok {
			copy(f.disk[io.Offset:], p)
		}
	case nvme.OpRead:
		if p, ok := f.e.payload[io]; ok {
			copy(p, f.disk[io.Offset:io.Offset+int64(io.Size)])
		}
	case nvme.OpTrim:
		f.trims++
		for i := io.Offset; i < io.Offset+int64(io.Size); i++ {
			f.disk[i] = 0
		}
	}
	f.e.loop.After(f.delay, func() { io.Done(io, nvme.Completion{Status: nvme.StatusOK}) })
}

// testBlobConfig keeps test capacities small: 1MB mega blobs carved into
// the paper's 256KB micro blobs, no replication (the volume layer places
// single spans).
func testBlobConfig() blobstore.Config {
	return blobstore.Config{MegaBlobBytes: 1 << 20, MicroBlobBytes: 256 << 10, Replicas: 1}
}

// newEnv builds nback backends of megas mega blobs each.
func newEnv(t *testing.T, nback, megas int) *env {
	e := &env{t: t, loop: sim.NewLoop(), payload: make(map[*nvme.IO][]byte)}
	cfg := testBlobConfig()
	capacity := int64(megas) * cfg.MegaBlobBytes
	var bs []*blobstore.Backend
	caps := make([]int64, 0, nback)
	for i := 0; i < nback; i++ {
		fd := &fakeDev{e: e, idx: i, delay: 20_000, disk: make([]byte, capacity), head: 100}
		e.devs = append(e.devs, fd)
		fd2 := fd
		bs = append(bs, &blobstore.Backend{
			Target:   fd,
			Headroom: func() int { return fd2.head },
			Capacity: capacity,
		})
		caps = append(caps, capacity)
	}
	e.local = blobstore.NewLocal(blobstore.NewGlobal(cfg, caps), bs)
	e.m = NewManager(e.loop, e.local, DefaultClasses(), e.router)
	e.m.OnCopy = func(src, dst blobstore.Addr, n int64) {
		d := e.devs[dst.Backend].disk[dst.Offset : dst.Offset+n]
		if src.Backend < 0 {
			for i := range d {
				d[i] = 0
			}
			return
		}
		copy(d, e.devs[src.Backend].disk[src.Offset:src.Offset+n])
	}
	return e
}

func (e *env) router(backend int) Target { return e.devs[backend] }

// write routes one logical write and drains the loop to completion.
func (e *env) write(v *Volume, off int64, data []byte) {
	e.t.Helper()
	io := &nvme.IO{Op: nvme.OpWrite, Offset: off, Size: len(data)}
	done := false
	io.Done = func(_ *nvme.IO, cpl nvme.Completion) {
		if cpl.Status != nvme.StatusOK {
			e.t.Fatalf("write %s@%d: status %#x", v.Name(), off, uint16(cpl.Status))
		}
		done = true
	}
	e.payload[io] = data
	v.Route(io, e.router)
	e.loop.Run()
	delete(e.payload, io)
	if !done {
		e.t.Fatalf("write %s@%d never completed", v.Name(), off)
	}
}

// read returns the volume's full logical content, one extent per IO (the
// single-extent fast path, so payload registration works).
func (e *env) read(v *Volume) []byte {
	e.t.Helper()
	buf := make([]byte, v.Size())
	eb := e.m.ExtentBytes()
	for off := int64(0); off < v.Size(); off += eb {
		n := eb
		if off+n > v.Size() {
			n = v.Size() - off
		}
		io := &nvme.IO{Op: nvme.OpRead, Offset: off, Size: int(n)}
		done := false
		io.Done = func(_ *nvme.IO, cpl nvme.Completion) {
			if cpl.Status != nvme.StatusOK {
				e.t.Fatalf("read %s@%d: status %#x", v.Name(), off, uint16(cpl.Status))
			}
			done = true
		}
		e.payload[io] = buf[off : off+n]
		v.Route(io, e.router)
		e.loop.Run()
		delete(e.payload, io)
		if !done {
			e.t.Fatalf("read %s@%d never completed", v.Name(), off)
		}
	}
	return buf
}

// audit fails the test if incremental accounting diverges from the
// mapping tables.
func (e *env) audit() {
	e.t.Helper()
	if err := e.m.Audit(); err != nil {
		e.t.Fatal(err)
	}
}

// pattern builds a deterministic test payload.
func pattern(tag byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag ^ byte(i*7)
	}
	return p
}

func (e *env) deviceTrims() int {
	n := 0
	for _, d := range e.devs {
		n += d.trims
	}
	return n
}

// freedEverything asserts every carved micro blob is back on a free list:
// for each backend, the local free count must equal the carved mega blobs
// times micros-per-mega.
func (e *env) freedEverything() {
	e.t.Helper()
	cfg := e.local.Config()
	perMega := int(cfg.MegaBlobBytes / cfg.MicroBlobBytes)
	g := e.local.Global()
	for i, b := range e.local.Backends() {
		total := int(b.Capacity / cfg.MegaBlobBytes)
		carved := total - g.FreeMegas(i)
		if got, want := e.local.FreeMicros(i), carved*perMega; got != want {
			e.t.Fatalf("backend %d: %d free micros, want %d (carved %d megas)", i, got, want, carved)
		}
	}
}
