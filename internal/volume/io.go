package volume

import "gimbal/internal/nvme"

// The data path. Route translates one logical IO into device IO against
// the volume's extent map:
//
//   - reads of allocated extents forward with the offset rewritten;
//   - reads of holes complete asynchronously from the mapping table;
//   - writes to exclusively-owned extents forward in place;
//   - writes to holes allocate-and-remap, then forward;
//   - writes to shared extents (snapshot or clone still references them)
//     copy the whole extent to a fresh span first — read old, write new,
//     drop the old reference — then forward the client write to the new
//     span. The copy IOs ride the caller's router, so COW amplification
//     is charged to the tenant whose write triggered it.
//
// The common case — a single-extent IO against an allocated, unshared
// span — mutates io.Offset and forwards with no allocation.

// Route submits one logical IO through the given router. io.Offset is
// interpreted in volume-logical space and may be rewritten in place.
func (v *Volume) Route(io *nvme.IO, router Router) {
	m := v.m
	if v.deleted {
		m.complete(io, nvme.StatusAborted)
		return
	}
	end := io.Offset + int64(io.Size)
	if io.Offset < 0 || io.Size <= 0 || end > v.size {
		m.complete(io, nvme.StatusInvalidLBA)
		return
	}
	eb := m.extentBytes
	first := int(io.Offset / eb)
	last := int((end - 1) / eb)
	if first == last {
		v.submitSeg(io, first, io.Offset-int64(first)*eb, io.Size, router, nil)
		return
	}
	// Straddling IO: fan out one segment per extent and aggregate the
	// completions; the first non-OK status wins.
	remaining := last - first + 1
	st := nvme.StatusOK
	done := func(s nvme.Status) {
		if s != nvme.StatusOK && st == nvme.StatusOK {
			st = s
		}
		if remaining--; remaining == 0 {
			io.Done(io, nvme.Completion{Status: st})
		}
	}
	off := io.Offset
	for e := first; e <= last; e++ {
		segEnd := int64(e+1) * eb
		if segEnd > end {
			segEnd = end
		}
		v.submitSeg(io, e, off-int64(e)*eb, int(segEnd-off), router, done)
		off = segEnd
	}
}

// Submit routes over the manager's system path, making a Volume a
// workload.Target directly. Callers that care about per-tenant QoS
// charging should prefer Route with their own router.
func (v *Volume) Submit(io *nvme.IO) { v.Route(io, v.m.pool) }

// submitSeg handles the portion of io that falls in extent e, starting
// off bytes into the extent and running n bytes. done == nil means io is
// single-extent and completes through its own Done; otherwise each
// segment reports into the fan-out aggregator.
func (v *Volume) submitSeg(io *nvme.IO, e int, off int64, n int, router Router, done func(nvme.Status)) {
	m := v.m
	a := v.extents[e]
	switch io.Op {
	case nvme.OpWrite:
		if a.Backend < 0 || m.refs[a] > 1 {
			v.cowWrite(io, e, off, n, router, done)
			return
		}
		v.forwardSeg(io, a.Backend, a.Offset+off, n, router, done)
	case nvme.OpRead:
		if a.Backend >= 0 {
			v.forwardSeg(io, a.Backend, a.Offset+off, n, router, done)
			return
		}
		m.ZeroReads++
		v.finishSeg(io, nvme.StatusOK, done)
	default:
		// Trims, flushes: pass through where backed, succeed on holes.
		if a.Backend >= 0 {
			v.forwardSeg(io, a.Backend, a.Offset+off, n, router, done)
			return
		}
		v.finishSeg(io, nvme.StatusOK, done)
	}
}

// forwardSeg sends a segment to the device. In the single-extent case the
// original IO is forwarded with its offset rewritten (no allocation); in
// the fan-out case a child IO carries the segment.
func (v *Volume) forwardSeg(io *nvme.IO, backend int, physOff int64, n int, router Router, done func(nvme.Status)) {
	if done == nil {
		io.Offset = physOff
		router(backend).Submit(io)
		return
	}
	child := &nvme.IO{
		Op:       io.Op,
		Offset:   physOff,
		Size:     n,
		Priority: io.Priority,
		Done:     func(_ *nvme.IO, cpl nvme.Completion) { done(cpl.Status) },
	}
	router(backend).Submit(child)
}

// finishSeg completes a segment without device IO — always asynchronously
// (when a clock exists) so closed-loop submitters cannot recurse through
// a synchronous completion.
func (v *Volume) finishSeg(io *nvme.IO, st nvme.Status, done func(nvme.Status)) {
	if done == nil {
		v.m.complete(io, st)
		return
	}
	if v.m.loop != nil {
		v.m.loop.After(zeroReadLatency, func() { done(st) })
		return
	}
	done(st)
}

// complete finishes a whole IO from the mapping layer.
func (m *Manager) complete(io *nvme.IO, st nvme.Status) {
	if m.loop != nil {
		m.loop.After(zeroReadLatency, func() { io.Done(io, nvme.Completion{Status: st}) })
		return
	}
	io.Done(io, nvme.Completion{Status: st})
}

// cowWrite remaps extent e to a fresh span before letting the client
// write proceed. Holes just fill (nothing to copy); shared spans copy the
// full extent old→new and drop the old reference. The remap — and the
// OnCopy observation — happens before any device IO, so the mapping
// table never points at a half-copied span with refcount confusion: the
// new span is exclusively owned from the first instant.
func (v *Volume) cowWrite(io *nvme.IO, e int, off int64, n int, router Router, done func(nvme.Status)) {
	m := v.m
	old := v.extents[e]
	na, err := m.allocExtent(old.Backend)
	if err != nil {
		m.AllocFailures++
		v.finishSeg(io, nvme.StatusInternalErr, done)
		return
	}
	v.extents[e] = na
	if m.OnCopy != nil {
		m.OnCopy(old, na, m.extentBytes)
	}
	clientWrite := func() {
		v.forwardSeg(io, na.Backend, na.Offset+off, n, router, done)
	}
	if old.Backend < 0 {
		// Filling a hole: the span's remainder logically reads as the
		// zeros the hole held, no copy IO needed.
		clientWrite()
		return
	}
	m.CowCopies++
	m.CowBytesCopied += m.extentBytes
	// Copy chain: read the old span, write it to the new span, release
	// the old reference, then let the client write land on the new span.
	rd := &nvme.IO{Op: nvme.OpRead, Offset: old.Offset, Size: int(m.extentBytes), Priority: io.Priority}
	rd.Done = func(_ *nvme.IO, rc nvme.Completion) {
		wr := &nvme.IO{Op: nvme.OpWrite, Offset: na.Offset, Size: int(m.extentBytes), Priority: io.Priority}
		wr.Done = func(_ *nvme.IO, wc nvme.Completion) {
			m.decref(old)
			if rc.Status != nvme.StatusOK {
				v.finishSeg(io, rc.Status, done)
				return
			}
			if wc.Status != nvme.StatusOK {
				v.finishSeg(io, wc.Status, done)
				return
			}
			clientWrite()
		}
		router(na.Backend).Submit(wr)
	}
	router(old.Backend).Submit(rd)
}
