// Package nvme defines the NVMe-level vocabulary shared by the fabric
// transports, the Gimbal switch, and the baseline schedulers: opcodes,
// the in-flight IO representation, tenants (one per NVMe-oF qpair, as in
// §3.1 of the paper), and the Scheduler interface every multi-tenancy
// scheme implements at the target.
package nvme

import (
	"fmt"

	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// Opcode is the NVMe IO command opcode (the subset the system uses).
type Opcode uint8

// Supported opcodes. Values follow the NVMe base specification.
const (
	OpFlush Opcode = 0x00
	OpWrite Opcode = 0x01
	OpRead  Opcode = 0x02
	OpTrim  Opcode = 0x09 // dataset management / deallocate
)

// String names the opcode.
func (o Opcode) String() string {
	switch o {
	case OpFlush:
		return "flush"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpTrim:
		return "trim"
	default:
		return fmt.Sprintf("opc(0x%02x)", uint8(o))
	}
}

// IsWrite reports whether the opcode consumes write bandwidth.
func (o Opcode) IsWrite() bool { return o == OpWrite }

// Kind converts to the device-level operation.
func (o Opcode) Kind() ssd.OpKind {
	switch o {
	case OpRead:
		return ssd.OpRead
	case OpWrite:
		return ssd.OpWrite
	case OpFlush:
		return ssd.OpFlush
	case OpTrim:
		return ssd.OpTrim
	default:
		panic("nvme: no device kind for " + o.String())
	}
}

// Priority is the client-assigned request priority carried in NVMe-oF
// capsules (§3.5 "per-tenant priority queues"). Lower value = higher
// priority.
type Priority uint8

// Priorities.
const (
	PriorityHigh   Priority = 0
	PriorityNormal Priority = 1
	PriorityLow    Priority = 2
	NumPriorities           = 3
)

// Weights used when the scheduler cycles a tenant's priority queues.
var priorityWeights = [NumPriorities]int{4, 2, 1}

// Weight returns the scheduling weight of the priority class.
func (p Priority) Weight() int { return priorityWeights[p] }

// Status is an NVMe completion status code (0 = success).
type Status uint16

// Status codes.
const (
	StatusOK           Status = 0x0000
	StatusInvalidOp    Status = 0x0001
	StatusInvalidLBA   Status = 0x0080
	StatusDeviceBusy   Status = 0x0180 // vendor: device saturated (credit gate)
	StatusInternalErr  Status = 0x0006
	StatusAborted      Status = 0x0007 // command aborted (session teardown, tenant removal)
	StatusTimeout      Status = 0x0181 // vendor: initiator per-IO deadline expired
	StatusDeviceFailed Status = 0x0182 // vendor: device latched failed (fail-fast)
)

// Completion is the result of an IO, including the Gimbal credit piggyback
// carried in the completion capsule's reserved field (§3.6).
type Completion struct {
	Status Status
	Credit uint32 // total credit currently granted to the tenant
}

// IO is one block IO flowing through a target pipeline. The fabric layer
// creates it from a command capsule; the scheduler decides when it reaches
// the device; Done fires when the completion capsule can be sent.
type IO struct {
	Op       Opcode
	Offset   int64 // bytes, page aligned
	Size     int   // bytes
	Priority Priority
	Tenant   *Tenant

	// Issued is when the issuer (workload.Worker, workload.Scenario)
	// submitted the IO: the start of the latency it measures.
	Issued    int64
	Origin    int64 // transport send time (the session, or capsule receipt)
	Arrival   int64 // target ingress time
	Admit     int64 // first scheduler dispatch attempt (0 until selected)
	DevSubmit int64 // submission to the NVMe device
	DevDone   int64 // device completion

	// VslotWait is the time the IO's tenant spent deferred with every
	// virtual slot closed (congestion-control clamp) while this IO was
	// queued; the DRR scheduler accounts it between Enqueue and Commit.
	VslotWait int64
	// GCWait is the device-side stall attributed to garbage collection,
	// copied from the completed device request.
	GCWait int64

	// Failed is set when the device reported a media error; schedulers
	// translate it into a completion status.
	Failed bool

	Done func(io *IO, cpl Completion)

	// Sched is per-IO scratch space owned by the active scheduler.
	Sched any

	// req and devDone are owned by Submitter.Submit: the device request is
	// embedded in the IO so the egress path performs no per-IO allocation.
	req     ssd.Request
	devDone func(*IO)
}

// DeviceLatency is the raw device service time (what Gimbal's latency
// monitor feeds on — measured at the NVMe interface, §3.2).
func (io *IO) DeviceLatency() int64 { return io.DevDone - io.DevSubmit }

// Tenant is one storage client: an RDMA qpair plus an NVMe qpair in the
// paper's terms. Schedulers hang their per-tenant state off State.
type Tenant struct {
	ID     int
	Name   string
	Weight int // DRR share weight (1 for all paper experiments)

	// Class is the QoS class index for hierarchical scheduling (tenant →
	// class → switch). Schedulers with a single class ignore it; the DRR
	// clamps out-of-range values to class 0.
	Class int

	// State is per-tenant scratch owned by the active scheduler.
	State any
}

// NewTenant returns a tenant with weight 1.
func NewTenant(id int, name string) *Tenant {
	return &Tenant{ID: id, Name: name, Weight: 1}
}

// Scheduler orchestrates the IO of multiple tenants onto one SSD. A
// scheduler instance owns exactly one device pipeline (shared-nothing,
// §4.1). Implementations: the Gimbal switch (internal/core) and the
// baselines (internal/baseline/...).
type Scheduler interface {
	// Register announces a tenant before its first IO.
	Register(t *Tenant)
	// Enqueue accepts an IO; the scheduler invokes io.Done when the
	// completion capsule may be sent. Enqueue never blocks.
	Enqueue(io *IO)
}

// TenantRemover is implemented by schedulers that can tear down a
// tenant's state when its session disconnects. Unregister drops every
// per-tenant structure (queues, slots, shares) and returns the IOs that
// were still queued — never dispatched to the device — so the caller can
// complete them with StatusAborted. IOs already at the device complete
// through the normal path; schedulers must tolerate completions (and new
// enqueues) for unregistered tenants without corrupting state.
type TenantRemover interface {
	Unregister(t *Tenant) []*IO
}

// Submitter runs IOs against a device and routes completions; it is the
// egress every scheduler shares. It enforces page alignment ahead of the
// device's panics, turning malformed client requests into error
// completions instead.
type Submitter struct {
	Sched sim.Scheduler
	Dev   ssd.Device
}

// page is the 4 KiB block Check aligns an IO's offset and size to. A
// constant, so its two remainders compile to masks.
const page = 4096

// NewSubmitter returns a submitter for dev.
func NewSubmitter(sched sim.Scheduler, dev ssd.Device) *Submitter {
	return &Submitter{Sched: sched, Dev: dev}
}

// Check validates an IO against device bounds, returning a failure status
// or StatusOK.
func (s *Submitter) Check(io *IO) Status {
	switch io.Op {
	case OpRead, OpWrite, OpTrim:
		if io.Size <= 0 || io.Offset < 0 || io.Offset+int64(io.Size) > s.Dev.Capacity() {
			return StatusInvalidLBA
		}
		if io.Offset%page != 0 || io.Size%page != 0 {
			return StatusInvalidLBA
		}
		return StatusOK
	case OpFlush:
		return StatusOK
	default:
		return StatusInvalidOp
	}
}

// CompletionStatus derives the NVMe status of a finished IO.
func CompletionStatus(io *IO) Status {
	if io.Failed {
		return StatusInternalErr
	}
	return StatusOK
}

// Served reports whether the status is one CompletionStatus gives: the
// device served the IO, so it carries every target-side stamp.
func (s Status) Served() bool { return s == StatusOK || s == StatusInternalErr }

// Submit sends the IO to the device, stamping DevSubmit/DevDone and calling
// done on completion. The caller must have validated with Check. The device
// request is the IO's embedded one, so Submit allocates nothing; an IO may
// have at most one device request outstanding at a time.
func (s *Submitter) Submit(io *IO, done func(*IO)) {
	io.DevSubmit = s.Sched.Now()
	io.devDone = done
	io.req = ssd.Request{
		Kind:   io.Op.Kind(),
		Offset: io.Offset,
		Size:   io.Size,
		Tag:    io,
		Done:   reqDone,
	}
	s.Dev.Submit(&io.req)
}

// reqDone routes a device completion back to the IO's waiter. A top-level
// function value, unlike a per-IO closure, costs no allocation.
func reqDone(r *ssd.Request) {
	io := r.Tag.(*IO)
	io.DevDone = r.CompleteTime
	io.GCWait = r.GCWait
	io.Failed = r.MediaErr
	io.devDone(io)
}
