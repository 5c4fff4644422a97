package gimbal

import (
	"errors"
	"testing"
	"time"

	"gimbal/internal/fabric"
	"gimbal/internal/volume"
)

// TestVolumeAPIErrors drives every typed error path of the volume facade
// and checks errors.Is dispatch against the public sentinels.
func TestVolumeAPIErrors(t *testing.T) {
	s := NewSim(7)
	j, err := s.NewJBOF(WithSSDs(2))
	if err != nil {
		t.Fatal(err)
	}
	const mb = int64(1) << 20
	if _, err := j.CreateVolume("v", 64*mb); err != nil {
		t.Fatal(err)
	}
	v, err := j.Volume("v")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := v.Snapshot("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Clone("c"); err != nil {
		t.Fatal(err)
	}
	raw, err := j.WholeSSDVolume(0)
	if err != nil {
		t.Fatal(err)
	}
	overLogical := 5 * j.VolumeUsage().CapacityBytes // past the 4× thin budget

	cases := []struct {
		name string
		do   func() error
		want error
	}{
		{"create duplicate", func() error { _, err := j.CreateVolume("v", mb); return err }, ErrVolumeExists},
		{"create unknown class", func() error {
			_, err := j.CreateVolume("z", mb, WithQoSClass("platinum"))
			return err
		}, ErrUnknownQoSClass},
		{"create over thin budget", func() error { _, err := j.CreateVolume("z", overLogical); return err }, ErrOutOfCapacity},
		{"create thick over physical", func() error {
			_, err := j.CreateVolume("z", j.VolumeUsage().CapacityBytes+mb, WithThick())
			return err
		}, ErrOutOfCapacity},
		{"lookup missing volume", func() error { _, err := j.Volume("ghost"); return err }, ErrVolumeNotFound},
		{"lookup missing snapshot", func() error { _, err := j.Snapshot("ghost"); return err }, ErrVolumeNotFound},
		{"snapshot duplicate name", func() error { _, err := v.Snapshot("s"); return err }, ErrVolumeExists},
		{"clone duplicate name", func() error { _, err := snap.Clone("v"); return err }, ErrVolumeExists},
		{"clone unknown class", func() error { _, err := snap.Clone("z", WithQoSClass("platinum")); return err }, ErrUnknownQoSClass},
		{"delete snapshot with clones", func() error { return snap.Delete() }, ErrSnapshotInUse},
		{"resize over thin budget", func() error { return v.Resize(overLogical) }, ErrOutOfCapacity},
		{"resize raw volume", func() error { return raw.Resize(mb) }, ErrVolumeNotFound},
		{"delete raw volume", func() error { return raw.Delete() }, ErrVolumeNotFound},
		{"snapshot raw volume", func() error { _, err := raw.Snapshot("rs"); return err }, ErrVolumeNotFound},
		{"bad ssd index", func() error { _, err := j.WholeSSDVolume(9); return err }, ErrBadSSDIndex},
	}
	for _, tc := range cases {
		err := tc.do()
		if err == nil {
			t.Errorf("%s: no error, want %v", tc.name, tc.want)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v does not match sentinel %v", tc.name, err, tc.want)
		}
	}

	// A malformed class declaration fails JBOF construction.
	if _, err := s.NewJBOF(WithQoSClasses("gold=oops")); err == nil {
		t.Error("bad -qos-classes spec should fail NewJBOF")
	}
}

// TestVolumeWorkload runs streams against managed volumes end to end:
// thin allocation on write, class-derived stream defaults, usage
// accounting, and clean teardown.
func TestVolumeWorkload(t *testing.T) {
	s := NewSim(11)
	j, err := s.NewJBOF(WithSSDs(2), WithQoSClasses("gold=8,silver=4,besteffort=1"))
	if err != nil {
		t.Fatal(err)
	}
	const mb = int64(1) << 20
	gold, err := j.CreateVolume("gold-vol", 256*mb, WithQoSClass("gold"))
	if err != nil {
		t.Fatal(err)
	}
	be, err := j.CreateVolume("be-vol", 256*mb, WithQoSClass("besteffort"))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gold.StartWorkload(WithReadFraction(0), WithIOSize(65536), WithQueueDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	bw, err := be.StartWorkload(WithReadFraction(0), WithIOSize(65536), WithQueueDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(300 * time.Millisecond)
	gw.Stop()
	bw.Stop()
	s.Run(50 * time.Millisecond)
	if gw.BandwidthMBps() <= 0 || bw.BandwidthMBps() <= 0 {
		t.Fatalf("no goodput: gold=%.1f besteffort=%.1f", gw.BandwidthMBps(), bw.BandwidthMBps())
	}
	u := j.VolumeUsage()
	if u.AllocatedBytes <= 0 || u.LogicalBytes != 512*mb || u.Volumes != 2 {
		t.Fatalf("usage after writes: %+v", u)
	}
	if gold.QoSClass() != "gold" || be.QoSClass() != "besteffort" {
		t.Fatalf("classes: %q %q", gold.QoSClass(), be.QoSClass())
	}
	if _, err := gold.View(); err != nil {
		t.Fatalf("volume view: %v", err)
	}
	if err := gold.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := be.Delete(); err != nil {
		t.Fatal(err)
	}
	s.Run(10 * time.Millisecond) // drain trims
	u = j.VolumeUsage()
	if u.AllocatedBytes != 0 || u.Volumes != 0 {
		t.Fatalf("usage after teardown: %+v", u)
	}
	if u.Trims == 0 {
		t.Fatal("teardown should have trimmed spans")
	}
}

// TestVolumeClassRetryPolicy: a stream on a managed volume arms its QoS
// class's retry policy on every per-SSD session, a class without deadlines
// arms none, and WithRetry overrides the class.
func TestVolumeClassRetryPolicy(t *testing.T) {
	s := NewSim(17)
	j, err := s.NewJBOF(WithSSDs(2))
	if err != nil {
		t.Fatal(err)
	}
	start := func(vol, class string, opts ...WorkloadOption) *Stream {
		t.Helper()
		v, err := j.CreateVolume(vol, 64<<20, WithQoSClass(class))
		if err != nil {
			t.Fatal(err)
		}
		st, err := v.StartWorkload(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	g := volume.DefaultClasses().Spec(0)
	if g.Name != "gold" || g.RetryTimeout <= 0 {
		t.Fatalf("default class 0 = %+v, want gold with deadlines", g)
	}
	gold := fabric.RetryPolicy{Timeout: g.RetryTimeout, MaxRetries: g.RetryMax, Backoff: g.RetryBackoff, BackoffCap: g.RetryBackoffCap}
	own := RetryPolicy{Timeout: 7 * time.Millisecond, MaxRetries: 1, Backoff: time.Millisecond, BackoffCap: 2 * time.Millisecond}
	ownWant := own.internal()
	for _, c := range []struct {
		name string
		st   *Stream
		want *fabric.RetryPolicy
	}{
		{"gold", start("g", "gold"), &gold},
		{"besteffort", start("b", "besteffort"), nil},
		{"gold WithRetry", start("o", "gold", WithRetry(own)), &ownWant},
	} {
		if len(c.st.sesss) != 2 {
			t.Fatalf("%s: %d sessions, want one per SSD", c.name, len(c.st.sesss))
		}
		for i, sess := range c.st.sesss {
			got := sess.RetryPolicy()
			if (got == nil) != (c.want == nil) || got != nil && *got != *c.want {
				t.Fatalf("%s: session %d policy %+v, want %+v", c.name, i, got, c.want)
			}
		}
	}
}

// TestCloneWorkloadCOW runs a stream against a clone and checks COW
// amplification is observed and charged.
func TestCloneWorkloadCOW(t *testing.T) {
	s := NewSim(13)
	j, err := s.NewJBOF(WithSSDs(2))
	if err != nil {
		t.Fatal(err)
	}
	const mb = int64(1) << 20
	v, err := j.CreateVolume("base", 64*mb)
	if err != nil {
		t.Fatal(err)
	}
	w, err := v.StartWorkload(WithReadFraction(0), WithIOSize(65536), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(200 * time.Millisecond)
	w.Stop()
	s.Run(20 * time.Millisecond)
	snap, err := v.Snapshot("s")
	if err != nil {
		t.Fatal(err)
	}
	c, err := snap.Clone("c")
	if err != nil {
		t.Fatal(err)
	}
	cw, err := c.StartWorkload(WithReadFraction(0), WithIOSize(65536), WithQueueDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(200 * time.Millisecond)
	cw.Stop()
	s.Run(20 * time.Millisecond)
	if u := j.VolumeUsage(); u.CowCopies == 0 {
		t.Fatalf("writes to a clone produced no COW copies: %+v", u)
	}
}
