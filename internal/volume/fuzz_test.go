package volume

import (
	"errors"
	"fmt"
	"testing"

	"gimbal/internal/nvme"
)

// FuzzVolumeOps drives a Manager with an op sequence decoded from the
// fuzzer's bytes: create, resize, snapshot, clone, delete, delete-snapshot
// and 4 KiB copy-on-write writes, over four volume and four snapshot names
// on two small backends. After every step Audit must pass, and a create of
// a name that exists, or a delete of one that does not, must fail with
// ErrExists or ErrNotFound and leave Usage as it was.
//
// Each op takes three bytes: the op, then two operands (a name index in
// their low two bits, a size or an offset in 64ths of the volume in the
// rest).
//
//	go test ./internal/volume -run '^$' -fuzz FuzzVolumeOps -fuzztime 10s
func FuzzVolumeOps(f *testing.F) {
	const (
		opCreate = iota
		opCreateThick
		opResize
		opSnapshot
		opClone
		opDelete
		opDeleteSnapshot
		opWrite
		numOps
	)
	// Seeds: a write, snapshot, clone, write-through-COW and teardown in
	// every order the refcounts care about.
	f.Add([]byte{opCreate, 0, 8, opWrite, 0, 0, opSnapshot, 0, 0, opClone, 0, 1, opWrite, 1, 0,
		opDelete, 1, 0, opDelete, 0, 0, opDeleteSnapshot, 0, 0})
	f.Add([]byte{opCreateThick, 2, 12, opSnapshot, 2, 1, opResize, 2, 4, opWrite, 2, 5,
		opClone, 1, 3, opResize, 3, 40, opWrite, 3, 33, opDeleteSnapshot, 1, 0, opDelete, 3, 0})
	f.Add([]byte{opCreate, 0, 4, opCreate, 0, 4, opWrite, 0, 9, opSnapshot, 0, 0, opSnapshot, 0, 0,
		opWrite, 0, 9, opResize, 0, 1, opDelete, 0, 0, opDelete, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := newEnv(t, 2, 2)
		eb := e.m.ExtentBytes()
		const pageBytes = 4096
		check := func(step int, what string) {
			t.Helper()
			if err := e.m.Audit(); err != nil {
				t.Fatalf("step %d (%s): %v", step, what, err)
			}
		}
		// refuses asserts that a create or delete by name fails with want and
		// leaves the manager as it found it.
		refuses := func(step int, what string, want error, call func() error) {
			t.Helper()
			before := e.m.Usage()
			if err := call(); !errors.Is(err, want) {
				t.Fatalf("step %d: repeated %s: error %v, want %v", step, what, err, want)
			}
			if after := e.m.Usage(); after != before {
				t.Fatalf("step %d: repeated %s changed usage %+v to %+v", step, what, before, after)
			}
			check(step, "repeated "+what)
		}
		for step := 0; step+2 < len(ops); step += 3 {
			op, a, b := ops[step]%numOps, ops[step+1], ops[step+2]
			vol := fmt.Sprintf("v%d", a&3)
			snap := fmt.Sprintf("s%d", b&3)
			switch op {
			case opCreate, opCreateThick:
				// Sizes from one page to 16 extents, not always whole ones.
				size := int64(b>>2+1) * eb / 4
				spec := Spec{Name: vol, Size: size, Thick: op == opCreateThick}
				if _, err := e.m.Create(spec); err == nil {
					refuses(step, "create "+vol, ErrExists, func() error {
						_, err := e.m.Create(spec)
						return err
					})
				}
			case opResize:
				_ = e.m.Resize(vol, int64(b>>2+1)*eb/4)
			case opSnapshot:
				_, _ = e.m.Snapshot(vol, snap)
			case opClone:
				_, _ = e.m.Clone(fmt.Sprintf("s%d", a&3), fmt.Sprintf("v%d", b&3), "")
			case opDelete:
				if e.m.Delete(vol) == nil {
					refuses(step, "delete "+vol, ErrNotFound, func() error { return e.m.Delete(vol) })
				}
			case opDeleteSnapshot:
				if e.m.DeleteSnapshot(snap) == nil {
					refuses(step, "delete-snapshot "+snap, ErrNotFound, func() error { return e.m.DeleteSnapshot(snap) })
				}
			case opWrite:
				v, err := e.m.Lookup(vol)
				if err != nil {
					break
				}
				off := int64(b>>2) * v.Size() / 64
				off -= off % pageBytes
				size := int(min(pageBytes, v.Size()-off))
				io := &nvme.IO{Op: nvme.OpWrite, Offset: off, Size: size}
				st := nvme.Status(0xffff)
				io.Done = func(_ *nvme.IO, c nvme.Completion) { st = c.Status }
				v.Route(io, e.router)
				e.loop.Run()
				// A copy-on-write that finds no free span fails the write;
				// nothing else may.
				if st != nvme.StatusOK && st != nvme.StatusInternalErr {
					t.Fatalf("step %d: write %s@%d: status %#x", step, vol, off, uint16(st))
				}
			}
			e.loop.Run()
			check(step, fmt.Sprintf("op %d on %s/%s", op, vol, snap))
		}
	})
}
