package volume

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// QoSSpec names one service class and what it buys. A class compiles down
// to three existing mechanisms in one place (the whole point of naming
// it): the hierarchical DRR's class weight (inter-class bandwidth share),
// the NVMe-oF priority tag (intra-tenant queue cycling weight, which is
// how virtual-slot credits are spent, §3.5), and the initiator session's
// retry policy (how hard a client fights for its deadline; the facade
// builds each stream's session policy from these fields).
type QoSSpec struct {
	Name     string
	Weight   int           // hierarchical DRR weight at the class level (≥1)
	Priority nvme.Priority // priority tag stamped on the class's streams

	// Client-side recovery policy, in ns (0 Timeout = no deadlines). Kept
	// as plain integers so this package stays below the fabric layer.
	RetryTimeout    int64
	RetryMax        int
	RetryBackoff    int64
	RetryBackoffCap int64
}

// Compiled is the scheduler-level realization of a ClassSet.
// Index i describes class i (the value stored in nvme.Tenant.Class).
type Compiled struct {
	// ClassWeights feeds sched.Config.ClassWeights: the top level of the
	// hierarchical DRR. nil when the set has a single class (flat mode,
	// bit-identical to the paper's scheduler).
	ClassWeights []int
	// Priorities is the per-class priority tag for streams that do not
	// override it.
	Priorities []nvme.Priority
}

// ClassSet is an ordered set of QoS classes. Order is identity: the i-th
// spec is QoS class i everywhere (nvme.Tenant.Class, ClassWeights[i]).
type ClassSet struct {
	specs  []QoSSpec
	byName map[string]int
}

// NewClassSet validates and freezes an ordered class list. Weights below 1
// are clamped to 1 (matching the scheduler's own clamp).
func NewClassSet(specs ...QoSSpec) (*ClassSet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: empty class set", ErrInvalid)
	}
	cs := &ClassSet{byName: make(map[string]int, len(specs))}
	for i, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("%w: class %d has no name", ErrInvalid, i)
		}
		if _, dup := cs.byName[sp.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate class %q", ErrInvalid, sp.Name)
		}
		if sp.Weight < 1 {
			sp.Weight = 1
		}
		if sp.Priority > nvme.PriorityLow {
			sp.Priority = nvme.PriorityLow
		}
		cs.byName[sp.Name] = i
		cs.specs = append(cs.specs, sp)
	}
	return cs, nil
}

// DefaultClasses returns the provider's menu used throughout the
// experiments: gold (weight 8, high priority, tight deadlines), silver
// (weight 4, normal), besteffort (weight 1, low priority, no deadlines).
func DefaultClasses() *ClassSet {
	cs, err := NewClassSet(
		QoSSpec{Name: "gold", Weight: 8, Priority: nvme.PriorityHigh,
			RetryTimeout: 20 * sim.Millisecond, RetryMax: 4,
			RetryBackoff: sim.Millisecond, RetryBackoffCap: 8 * sim.Millisecond},
		QoSSpec{Name: "silver", Weight: 4, Priority: nvme.PriorityNormal,
			RetryTimeout: 50 * sim.Millisecond, RetryMax: 2,
			RetryBackoff: 2 * sim.Millisecond, RetryBackoffCap: 16 * sim.Millisecond},
		QoSSpec{Name: "besteffort", Weight: 1, Priority: nvme.PriorityLow},
	)
	if err != nil {
		panic(err)
	}
	return cs
}

// SingleClass returns the degenerate set every manager without named
// classes uses: one default class, flat scheduling.
func SingleClass() *ClassSet {
	cs, err := NewClassSet(QoSSpec{Name: "default", Weight: 1, Priority: nvme.PriorityNormal})
	if err != nil {
		panic(err)
	}
	return cs
}

// ParseClasses parses the gimbald flag syntax "gold=8,silver=4,besteffort=1"
// into a class set in listed order. Priorities are assigned by rank: the
// heaviest class gets PriorityHigh, the lightest PriorityLow, everything
// between PriorityNormal. Retry policies stay at the session defaults.
func ParseClasses(s string) (*ClassSet, error) {
	parts := strings.Split(s, ",")
	specs := make([]QoSSpec, 0, len(parts))
	for _, p := range parts {
		name, w, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok {
			return nil, fmt.Errorf("%w: class %q: want name=weight", ErrInvalid, p)
		}
		weight, err := strconv.Atoi(strings.TrimSpace(w))
		if err != nil {
			return nil, fmt.Errorf("%w: class %q: %v", ErrInvalid, name, err)
		}
		if weight < 1 {
			return nil, fmt.Errorf("%w: class %q: weight %d must be >= 1", ErrInvalid, name, weight)
		}
		specs = append(specs, QoSSpec{Name: strings.TrimSpace(name), Weight: weight})
	}
	// Rank-derived priorities: heaviest weight → highest priority.
	ranked := make([]int, len(specs))
	for i := range ranked {
		ranked[i] = i
	}
	sort.SliceStable(ranked, func(a, b int) bool { return specs[ranked[a]].Weight > specs[ranked[b]].Weight })
	for rank, idx := range ranked {
		switch {
		case len(specs) == 1 || rank == 0:
			specs[idx].Priority = nvme.PriorityHigh
		case rank == len(specs)-1:
			specs[idx].Priority = nvme.PriorityLow
		default:
			specs[idx].Priority = nvme.PriorityNormal
		}
	}
	return NewClassSet(specs...)
}

// Len returns the number of classes.
func (cs *ClassSet) Len() int { return len(cs.specs) }

// Index resolves a class name to its index. The empty name means class 0
// (the default class).
func (cs *ClassSet) Index(name string) (int, error) {
	if name == "" {
		return 0, nil
	}
	i, ok := cs.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q (have %s)", ErrUnknownClass, name, strings.Join(cs.Names(), ", "))
	}
	return i, nil
}

// Spec returns class i's spec.
func (cs *ClassSet) Spec(i int) QoSSpec { return cs.specs[i] }

// Names returns the class names in index order.
func (cs *ClassSet) Names() []string {
	out := make([]string, len(cs.specs))
	for i, sp := range cs.specs {
		out[i] = sp.Name
	}
	return out
}

// Compile lowers the class set onto the scheduler's class weights and the
// streams' priority tags. The retry fields stay in the QoSSpec: the facade
// turns them into a stream's session policy when it starts one.
func (cs *ClassSet) Compile() Compiled {
	c := Compiled{Priorities: make([]nvme.Priority, len(cs.specs))}
	if len(cs.specs) > 1 {
		c.ClassWeights = make([]int, len(cs.specs))
	}
	for i, sp := range cs.specs {
		if c.ClassWeights != nil {
			c.ClassWeights[i] = sp.Weight
		}
		c.Priorities[i] = sp.Priority
	}
	return c
}
