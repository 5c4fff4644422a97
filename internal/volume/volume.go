// Package volume is the provisioning control plane over the blobstore
// allocator: thin- or thick-provisioned volumes with exact capacity
// accounting, point-in-time snapshots and writable clones implemented as
// copy-on-write at the extent-mapping layer (extents are shared until
// first write, then allocated-and-remapped, and the old span is TRIMmed
// when its last reference drops), and named QoS classes that compile to
// scheduler class weights, priority tags, and client retry policy in one
// place. This is the mapping-table offload FlexBSO runs on the SmartNIC:
// nothing below the mapping layer (scheduler, vslot, SSD model) knows
// volumes exist.
package volume

import (
	"errors"
	"fmt"

	"gimbal/internal/blobstore"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// Sentinel lifecycle errors, matched with errors.Is. The public facade and
// the gimbald HTTP layer translate these to their own vocabularies.
var (
	ErrNotFound      = errors.New("volume: not found")
	ErrExists        = errors.New("volume: already exists")
	ErrOutOfCapacity = errors.New("volume: out of capacity")
	ErrSnapshotInUse = errors.New("volume: snapshot in use")
	ErrUnknownClass  = errors.New("volume: unknown QoS class")
	ErrInvalid       = errors.New("volume: invalid argument")
)

// Target is anything that can carry an IO to a backend (a fabric session,
// a switch adapter, a fake in tests).
type Target interface{ Submit(io *nvme.IO) }

// Router maps a backend index to the Target that reaches it. The data
// path is router-parameterized so each tenant's IO — including the COW
// copy traffic its writes trigger — rides that tenant's own sessions and
// is charged to it by the scheduler.
type Router func(backend int) Target

const (
	// overcommit is the thin-provisioning ratio: total logical bytes may
	// reach overcommit × physical capacity.
	overcommit = 4
	// zeroReadLatency is the simulated service time of a read from an
	// unallocated extent (served from the mapping table, no device IO).
	// Completions are always delivered asynchronously so closed-loop
	// workers cannot recurse.
	zeroReadLatency = 2 * sim.Microsecond
)

// Manager owns the volume, snapshot, and extent-reference state of one
// JBOF. It is single-threaded like everything else in the simulation: all
// methods must run on the event-loop goroutine (or before the loop
// starts). loop may be nil for provisioning-only use (gimbald's control
// plane), in which case the IO path must not be used.
type Manager struct {
	loop    sim.Scheduler
	local   *blobstore.Local
	classes *ClassSet
	pool    Router // system path: TRIMs of dropped spans; nil = skip device trims

	extentBytes   int64
	capacityBytes int64 // mega-aligned physical bytes across all backends

	vols      map[string]*Volume
	snaps     map[string]*Snapshot
	volOrder  []string // creation order: deterministic List/Audit iteration
	snapOrder []string

	refs           map[blobstore.Addr]int32
	allocatedBytes int64 // unique live spans × extentBytes
	logicalBytes   int64 // sum of live volume sizes

	avoid blobstore.Avoid // reusable placement scratch (COW remaps)

	// Stats.
	CowCopies      int64 // shared-extent remaps that required a data copy
	CowBytesCopied int64
	ZeroReads      int64 // reads served from the mapping table (holes)
	Trims          int64 // spans freed on last unref
	AllocFailures  int64 // writes failed because no backend had space

	// OnCopy, when set, observes every extent remap before the client
	// write proceeds: src is the prior mapping (Backend < 0 for a hole
	// being filled), dst the new span. Tests use it to maintain a shadow
	// byte store for the COW differential.
	OnCopy func(src, dst blobstore.Addr, n int64)
}

// NewManager builds a control plane over the agent's backends. classes
// may be nil for a single default class; pool may be nil to skip device
// TRIMs (accounting still runs).
func NewManager(loop sim.Scheduler, local *blobstore.Local, classes *ClassSet, pool Router) *Manager {
	if classes == nil {
		classes = SingleClass()
	}
	bc := local.Config()
	m := &Manager{
		loop:        loop,
		local:       local,
		classes:     classes,
		pool:        pool,
		extentBytes: bc.MicroBlobBytes,
		vols:        make(map[string]*Volume),
		snaps:       make(map[string]*Snapshot),
		refs:        make(map[blobstore.Addr]int32),
	}
	for _, b := range local.Backends() {
		m.capacityBytes += (b.Capacity / bc.MegaBlobBytes) * bc.MegaBlobBytes
	}
	return m
}

// SSD is one device of a storage node as its control plane sees it.
type SSD struct {
	Capacity int64 // usable bytes
	// System carries the control plane's own device IO to this SSD (TRIMs
	// of dropped spans); nil skips it, and accounting still runs.
	System Target
	// Headroom is the placement load signal (§4.3: a session's credit
	// headroom). nil — no live signal — spreads by remaining free space.
	Headroom func() int
}

// NewNodeManager builds the volume control plane of one storage node: a
// single-replica allocator over its SSDs and a Manager on top. loop may be
// nil for a provisioning-only plane.
func NewNodeManager(loop sim.Scheduler, classes *ClassSet, ssds []SSD) *Manager {
	bc := blobstore.DefaultConfig()
	bc.Replicas = 1
	caps := make([]int64, len(ssds))
	backends := make([]*blobstore.Backend, len(ssds))
	var local *blobstore.Local
	for i, s := range ssds {
		caps[i] = s.Capacity
		backends[i] = &blobstore.Backend{Target: s.System, Headroom: s.Headroom, Capacity: s.Capacity}
		if s.Headroom == nil {
			backends[i].Headroom = func() int { return local.FreeMicros(i) + 64*local.Global().FreeMegas(i) }
		}
	}
	local = blobstore.NewLocal(blobstore.NewGlobal(bc, caps), backends)
	return NewManager(loop, local, classes, func(b int) Target { return ssds[b].System })
}

// Classes returns the manager's QoS class set.
func (m *Manager) Classes() *ClassSet { return m.classes }

// ExtentBytes returns the mapping granularity (the micro blob size).
func (m *Manager) ExtentBytes() int64 { return m.extentBytes }

// Usage is a point-in-time accounting snapshot.
type Usage struct {
	CapacityBytes  int64 `json:"capacity_bytes"`
	AllocatedBytes int64 `json:"allocated_bytes"`
	LogicalBytes   int64 `json:"logical_bytes"`
	Volumes        int   `json:"volumes"`
	Snapshots      int   `json:"snapshots"`
	CowCopies      int64 `json:"cow_copies"`
	CowBytesCopied int64 `json:"cow_bytes_copied"`
	ZeroReads      int64 `json:"zero_reads"`
	Trims          int64 `json:"trims"`
	AllocFailures  int64 `json:"alloc_failures"`
}

// Info is a volume on the wire: what gimbald's volume endpoints reply
// with and gimbalcli decodes.
type Info struct {
	Name           string `json:"name"`
	SizeBytes      int64  `json:"size_bytes"`
	QoSClass       string `json:"qos_class"`
	Thick          bool   `json:"thick,omitempty"`
	Parent         string `json:"parent,omitempty"`
	AllocatedBytes int64  `json:"allocated_bytes"`
}

// SnapshotInfo is a snapshot on the wire.
type SnapshotInfo struct {
	Name      string `json:"name"`
	Source    string `json:"source"`
	SizeBytes int64  `json:"size_bytes"`
	Clones    int    `json:"clones"`
}

// Listing is the volume list on the wire: usage and every volume.
type Listing struct {
	Usage   Usage  `json:"usage"`
	Volumes []Info `json:"volumes"`
}

// Usage reports current accounting and data-path counters.
func (m *Manager) Usage() Usage {
	return Usage{
		CapacityBytes:  m.capacityBytes,
		AllocatedBytes: m.allocatedBytes,
		LogicalBytes:   m.logicalBytes,
		Volumes:        len(m.vols),
		Snapshots:      len(m.snaps),
		CowCopies:      m.CowCopies,
		CowBytesCopied: m.CowBytesCopied,
		ZeroReads:      m.ZeroReads,
		Trims:          m.Trims,
		AllocFailures:  m.AllocFailures,
	}
}

// Volume is one provisioned namespace: a logical byte range mapped onto
// micro-blob extents. A hole (Backend < 0) reads as zeros and allocates
// on first write; a shared extent (refcount > 1) copies on first write.
type Volume struct {
	m       *Manager
	name    string
	class   int
	size    int64
	thick   bool
	extents []blobstore.Addr
	parent  *Snapshot // snapshot this volume was cloned from, if any
	deleted bool
}

// Snapshot is an immutable point-in-time extent map. It pins its spans
// via the reference counts; writable clones are cut from it.
type Snapshot struct {
	name    string
	source  string
	size    int64
	extents []blobstore.Addr
	clones  int
	deleted bool
}

// Spec describes a volume to create.
type Spec struct {
	Name  string
	Size  int64
	Class string // "" = the default (first) class
	Thick bool   // preallocate every extent at create time
}

var hole = blobstore.Addr{Backend: -1}

func (m *Manager) extentCount(size int64) int {
	return int((size + m.extentBytes - 1) / m.extentBytes)
}

func (m *Manager) overcommitBytes() int64 {
	return overcommit * m.capacityBytes
}

// Create provisions a volume. Thin volumes only consume logical budget;
// thick volumes also allocate every extent up front.
func (m *Manager) Create(spec Spec) (*Volume, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("%w: empty volume name", ErrInvalid)
	}
	if spec.Size <= 0 {
		return nil, fmt.Errorf("%w: volume %q: size %d must be > 0", ErrInvalid, spec.Name, spec.Size)
	}
	if _, ok := m.vols[spec.Name]; ok {
		return nil, fmt.Errorf("%w: volume %q", ErrExists, spec.Name)
	}
	class, err := m.classes.Index(spec.Class)
	if err != nil {
		return nil, err
	}
	if spec.Size > m.overcommitBytes()-m.logicalBytes { // no sum to overflow
		return nil, fmt.Errorf("%w: volume %q needs %d logical bytes, %d of %d provisioned",
			ErrOutOfCapacity, spec.Name, spec.Size, m.logicalBytes, m.overcommitBytes())
	}
	n := m.extentCount(spec.Size)
	if spec.Thick && m.allocatedBytes+int64(n)*m.extentBytes > m.capacityBytes {
		return nil, fmt.Errorf("%w: thick volume %q needs %d bytes, %d of %d allocated",
			ErrOutOfCapacity, spec.Name, int64(n)*m.extentBytes, m.allocatedBytes, m.capacityBytes)
	}
	v := &Volume{m: m, name: spec.Name, class: class, size: spec.Size, thick: spec.Thick,
		extents: make([]blobstore.Addr, n)}
	for i := range v.extents {
		v.extents[i] = hole
	}
	if spec.Thick {
		for i := range v.extents {
			a, err := m.allocExtent(-1)
			if err != nil {
				for j := 0; j < i; j++ {
					m.decref(v.extents[j])
				}
				return nil, fmt.Errorf("%w: thick volume %q: %v", ErrOutOfCapacity, spec.Name, err)
			}
			v.extents[i] = a
		}
	}
	m.vols[spec.Name] = v
	m.volOrder = append(m.volOrder, spec.Name)
	m.logicalBytes += spec.Size
	return v, nil
}

// Lookup resolves a live volume by name.
func (m *Manager) Lookup(name string) (*Volume, error) {
	v, ok := m.vols[name]
	if !ok {
		return nil, fmt.Errorf("%w: volume %q", ErrNotFound, name)
	}
	return v, nil
}

// LookupSnapshot resolves a live snapshot by name.
func (m *Manager) LookupSnapshot(name string) (*Snapshot, error) {
	s, ok := m.snaps[name]
	if !ok {
		return nil, fmt.Errorf("%w: snapshot %q", ErrNotFound, name)
	}
	return s, nil
}

// List returns live volumes in creation order.
func (m *Manager) List() []*Volume {
	out := make([]*Volume, 0, len(m.volOrder))
	for _, name := range m.volOrder {
		out = append(out, m.vols[name])
	}
	return out
}

// ListSnapshots returns live snapshots in creation order.
func (m *Manager) ListSnapshots() []*Snapshot {
	out := make([]*Snapshot, 0, len(m.snapOrder))
	for _, name := range m.snapOrder {
		out = append(out, m.snaps[name])
	}
	return out
}

func removeName(order []string, name string) []string {
	for i, n := range order {
		if n == name {
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}

// Delete tears a volume down: every extent reference is dropped (spans
// whose last reference this was are TRIMmed and freed), and the parent
// snapshot, if any, loses a clone.
func (m *Manager) Delete(name string) error {
	v, ok := m.vols[name]
	if !ok {
		return fmt.Errorf("%w: volume %q", ErrNotFound, name)
	}
	for _, a := range v.extents {
		m.decref(a)
	}
	v.extents = nil
	v.deleted = true
	if v.parent != nil {
		v.parent.clones--
	}
	m.logicalBytes -= v.size
	delete(m.vols, name)
	m.volOrder = removeName(m.volOrder, name)
	return nil
}

// Snapshot cuts a point-in-time snapshot of a volume: the extent map is
// copied and every allocated span gains a reference, so subsequent volume
// writes copy-on-write instead of overwriting history.
func (m *Manager) Snapshot(volName, snapName string) (*Snapshot, error) {
	v, ok := m.vols[volName]
	if !ok {
		return nil, fmt.Errorf("%w: volume %q", ErrNotFound, volName)
	}
	if snapName == "" {
		return nil, fmt.Errorf("%w: empty snapshot name", ErrInvalid)
	}
	if _, ok := m.snaps[snapName]; ok {
		return nil, fmt.Errorf("%w: snapshot %q", ErrExists, snapName)
	}
	s := &Snapshot{name: snapName, source: volName, size: v.size,
		extents: make([]blobstore.Addr, len(v.extents))}
	copy(s.extents, v.extents)
	for _, a := range s.extents {
		m.incref(a)
	}
	m.snaps[snapName] = s
	m.snapOrder = append(m.snapOrder, snapName)
	return s, nil
}

// DeleteSnapshot drops a snapshot and its span references. A snapshot
// with live clones cannot be deleted.
func (m *Manager) DeleteSnapshot(name string) error {
	s, ok := m.snaps[name]
	if !ok {
		return fmt.Errorf("%w: snapshot %q", ErrNotFound, name)
	}
	if s.clones > 0 {
		return fmt.Errorf("%w: snapshot %q has %d live clones", ErrSnapshotInUse, name, s.clones)
	}
	for _, a := range s.extents {
		m.decref(a)
	}
	s.extents = nil
	s.deleted = true
	delete(m.snaps, name)
	m.snapOrder = removeName(m.snapOrder, name)
	return nil
}

// Clone cuts a writable volume from a snapshot. The clone shares every
// span with the snapshot until first write; the snapshot cannot be
// deleted while the clone lives.
func (m *Manager) Clone(snapName, volName, class string) (*Volume, error) {
	s, ok := m.snaps[snapName]
	if !ok {
		return nil, fmt.Errorf("%w: snapshot %q", ErrNotFound, snapName)
	}
	if volName == "" {
		return nil, fmt.Errorf("%w: empty volume name", ErrInvalid)
	}
	if _, ok := m.vols[volName]; ok {
		return nil, fmt.Errorf("%w: volume %q", ErrExists, volName)
	}
	ci, err := m.classes.Index(class)
	if err != nil {
		return nil, err
	}
	if s.size > m.overcommitBytes()-m.logicalBytes {
		return nil, fmt.Errorf("%w: clone %q needs %d logical bytes, %d of %d provisioned",
			ErrOutOfCapacity, volName, s.size, m.logicalBytes, m.overcommitBytes())
	}
	v := &Volume{m: m, name: volName, class: ci, size: s.size, parent: s,
		extents: make([]blobstore.Addr, len(s.extents))}
	copy(v.extents, s.extents)
	for _, a := range v.extents {
		m.incref(a)
	}
	s.clones++
	m.vols[volName] = v
	m.volOrder = append(m.volOrder, volName)
	m.logicalBytes += s.size
	return v, nil
}

// Resize grows or shrinks a volume. Growth adds holes (thin) or fresh
// extents (thick); shrink drops the truncated extents' references.
func (m *Manager) Resize(name string, newSize int64) error {
	v, ok := m.vols[name]
	if !ok {
		return fmt.Errorf("%w: volume %q", ErrNotFound, name)
	}
	if newSize <= 0 {
		return fmt.Errorf("%w: volume %q: size %d must be > 0", ErrInvalid, name, newSize)
	}
	delta := newSize - v.size
	if delta > 0 && delta > m.overcommitBytes()-m.logicalBytes { // no sum to overflow
		return fmt.Errorf("%w: resize of %q needs %d more logical bytes, %d of %d provisioned",
			ErrOutOfCapacity, name, delta, m.logicalBytes, m.overcommitBytes())
	}
	n := m.extentCount(newSize)
	if v.thick && n > len(v.extents) {
		grow := int64(n-len(v.extents)) * m.extentBytes
		if m.allocatedBytes+grow > m.capacityBytes {
			return fmt.Errorf("%w: thick resize of %q needs %d bytes, %d of %d allocated",
				ErrOutOfCapacity, name, grow, m.allocatedBytes, m.capacityBytes)
		}
	}
	for n > len(v.extents) {
		if v.thick {
			a, err := m.allocExtent(-1)
			if err != nil {
				return fmt.Errorf("%w: thick resize of %q: %v", ErrOutOfCapacity, name, err)
			}
			v.extents = append(v.extents, a)
		} else {
			v.extents = append(v.extents, hole)
		}
	}
	for n < len(v.extents) {
		m.decref(v.extents[len(v.extents)-1])
		v.extents = v.extents[:len(v.extents)-1]
	}
	v.size = newSize
	m.logicalBytes += delta
	return nil
}

// allocExtent reserves one span, preferring a backend other than
// avoidBackend (the COW source, so the copy read and write overlap) but
// falling back to any backend rather than failing.
func (m *Manager) allocExtent(avoidBackend int) (blobstore.Addr, error) {
	var a *blobstore.Avoid
	if avoidBackend >= 0 && len(m.local.Backends()) > 1 {
		m.avoid.Reset(len(m.local.Backends()))
		m.avoid.Add(avoidBackend)
		a = &m.avoid
	}
	addr, err := m.local.Alloc(a)
	if err != nil && a != nil {
		addr, err = m.local.Alloc(nil)
	}
	if err != nil {
		return blobstore.Addr{}, err
	}
	m.refs[addr] = 1
	m.allocatedBytes += m.extentBytes
	return addr, nil
}

func (m *Manager) incref(a blobstore.Addr) {
	if a.Backend >= 0 {
		m.refs[a]++
	}
}

// decref drops one reference; on the last, the span is TRIMmed on the
// device (via the system path) and returned to the allocator.
func (m *Manager) decref(a blobstore.Addr) {
	if a.Backend < 0 {
		return
	}
	if r := m.refs[a] - 1; r > 0 {
		m.refs[a] = r
		return
	}
	delete(m.refs, a)
	m.allocatedBytes -= m.extentBytes
	m.Trims++
	if m.pool != nil {
		if t := m.pool(a.Backend); t != nil {
			t.Submit(&nvme.IO{
				Op:     nvme.OpTrim,
				Offset: a.Offset,
				Size:   int(m.extentBytes),
				Done:   func(*nvme.IO, nvme.Completion) {},
			})
		}
	}
	m.local.Free(a)
}

// Audit recomputes reference counts and byte accounting from the live
// mapping tables and cross-checks the incremental state. It returns nil
// when allocated bytes exactly equal the sum of live unique spans — the
// capacity-accounting invariant the churn experiment asserts.
func (m *Manager) Audit() error {
	want := make(map[blobstore.Addr]int32, len(m.refs))
	var logical int64
	for _, name := range m.volOrder {
		v := m.vols[name]
		logical += v.size
		for _, a := range v.extents {
			if a.Backend >= 0 {
				want[a]++
			}
		}
	}
	for _, name := range m.snapOrder {
		for _, a := range m.snaps[name].extents {
			if a.Backend >= 0 {
				want[a]++
			}
		}
	}
	if logical != m.logicalBytes {
		return fmt.Errorf("volume: audit: logical bytes %d, accounted %d", logical, m.logicalBytes)
	}
	if got := int64(len(want)) * m.extentBytes; got != m.allocatedBytes {
		return fmt.Errorf("volume: audit: live unique spans hold %d bytes, accounted %d", got, m.allocatedBytes)
	}
	if len(want) != len(m.refs) {
		return fmt.Errorf("volume: audit: %d live spans, %d refcounted", len(want), len(m.refs))
	}
	for a, w := range want {
		if m.refs[a] != w {
			return fmt.Errorf("volume: audit: span %+v refcount %d, accounted %d", a, w, m.refs[a])
		}
	}
	return nil
}

// Volume accessors.

// Name returns the volume name.
func (v *Volume) Name() string { return v.name }

// Size returns the logical size in bytes.
func (v *Volume) Size() int64 { return v.size }

// Class returns the volume's QoS class index.
func (v *Volume) Class() int { return v.class }

// ClassName returns the volume's QoS class name.
func (v *Volume) ClassName() string { return v.m.classes.Spec(v.class).Name }

// Thick reports whether the volume was thick-provisioned.
func (v *Volume) Thick() bool { return v.thick }

// Parent returns the source snapshot's name for a clone, else "".
func (v *Volume) Parent() string {
	if v.parent == nil {
		return ""
	}
	return v.parent.name
}

// AllocatedBytes returns the bytes of extents this volume maps (shared
// spans count fully: this is the volume's footprint, not its exclusive
// ownership).
func (v *Volume) AllocatedBytes() int64 {
	var n int64
	for _, a := range v.extents {
		if a.Backend >= 0 {
			n += v.m.extentBytes
		}
	}
	return n
}

// Snapshot accessors.

// Name returns the snapshot name.
func (s *Snapshot) Name() string { return s.name }

// Source returns the name the source volume had when the snapshot was cut.
func (s *Snapshot) Source() string { return s.source }

// Size returns the logical size in bytes.
func (s *Snapshot) Size() int64 { return s.size }

// Clones returns the number of live clones cut from this snapshot.
func (s *Snapshot) Clones() int { return s.clones }
