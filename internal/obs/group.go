package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
)

// Group joins several registries into one exposition surface. The live
// reactor datapath gives each reactor its own Registry shard whose
// GatherLock is that reactor's scheduler shard, and mounts a Group on
// /metrics: a scrape then visits the shards one at a time, serializing
// with at most one reactor at any moment — it never stops the whole
// datapath the way a single registry with a whole-target GatherLock
// would.
//
// Samples from all members are merged per metric family so the output is
// valid Prometheus text exposition (one TYPE/HELP header per family even
// when every shard exports the family). Within a family, member order
// then registration order is preserved. Duplicate series across members
// are not summed — shard registries are expected to label their series
// disjointly (per SSD, per reactor, per tenant).
type Group struct {
	members []*Registry
}

// NewGroup returns a Group over the members, gathered in order.
func NewGroup(members ...*Registry) *Group {
	return &Group{members: members}
}

// groupFamily accumulates one metric family's rendered sample lines
// across members.
type groupFamily struct {
	name string
	typ  string
	help string
	buf  bytes.Buffer
}

// WritePrometheus renders every member in the Prometheus text exposition
// format, grouped by family across members. Each member is read under its
// own GatherLock, one at a time.
func (g *Group) WritePrometheus(w io.Writer) error {
	byName := map[string]*groupFamily{}
	var fams []*groupFamily
	for _, r := range g.members {
		if err := g.renderMember(r, byName, &fams); err != nil {
			return err
		}
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		if _, err := w.Write(f.buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// renderMember renders one member's instruments into the family buffers
// while holding that member's locks (GatherLock serializes with its
// scheduler shard, gatherMu with its other collectors).
func (g *Group) renderMember(r *Registry, byName map[string]*groupFamily, fams *[]*groupFamily) error {
	if r.GatherLock != nil {
		r.GatherLock.Lock()
		defer r.GatherLock.Unlock()
	}
	r.gatherMu.Lock()
	defer r.gatherMu.Unlock()
	ins := r.instruments()
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()
	for _, in := range ins {
		f, ok := byName[in.name]
		if !ok {
			f = &groupFamily{name: in.name, typ: in.kind.typ()}
			byName[in.name] = f
			*fams = append(*fams, f)
		}
		if f.help == "" {
			f.help = help[in.name]
		}
		if err := r.writeSamples(&f.buf, in); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot merges every member's snapshot, summing duplicate keys (a
// series exported by several shards reads as its total).
func (g *Group) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, r := range g.members {
		for k, v := range r.Snapshot() {
			out[k] += v
		}
	}
	return out
}
