package volume

import (
	"errors"
	"strings"
	"testing"

	"gimbal/internal/nvme"
)

func TestDefaultClassesCompile(t *testing.T) {
	c := DefaultClasses().Compile()
	wantW := []int{8, 4, 1}
	if len(c.ClassWeights) != len(wantW) {
		t.Fatalf("ClassWeights = %v", c.ClassWeights)
	}
	for i, w := range wantW {
		if c.ClassWeights[i] != w {
			t.Fatalf("ClassWeights = %v, want %v", c.ClassWeights, wantW)
		}
	}
	wantP := []nvme.Priority{nvme.PriorityHigh, nvme.PriorityNormal, nvme.PriorityLow}
	for i, p := range wantP {
		if c.Priorities[i] != p {
			t.Fatalf("Priorities = %v, want %v", c.Priorities, wantP)
		}
	}
}

func TestSingleClassFlat(t *testing.T) {
	c := SingleClass().Compile()
	// A single class must compile to flat scheduling (nil ClassWeights),
	// keeping the scheduler bit-identical to the paper's DRR.
	if c.ClassWeights != nil {
		t.Fatalf("single class compiled ClassWeights %v, want nil", c.ClassWeights)
	}
}

func TestParseClasses(t *testing.T) {
	cs, err := ParseClasses("gold=8, silver=4, besteffort=1")
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Names(); len(got) != 3 || got[0] != "gold" || got[1] != "silver" || got[2] != "besteffort" {
		t.Fatalf("Names = %v", got)
	}
	c := cs.Compile()
	if c.ClassWeights[0] != 8 || c.ClassWeights[1] != 4 || c.ClassWeights[2] != 1 {
		t.Fatalf("ClassWeights = %v", c.ClassWeights)
	}
	// Rank-derived priorities: heaviest high, lightest low.
	if c.Priorities[0] != nvme.PriorityHigh || c.Priorities[1] != nvme.PriorityNormal || c.Priorities[2] != nvme.PriorityLow {
		t.Fatalf("Priorities = %v", c.Priorities)
	}

	for _, bad := range badClassFlags {
		if _, err := ParseClasses(bad); !errors.Is(err, ErrInvalid) {
			t.Errorf("ParseClasses(%q) = %v, want ErrInvalid", bad, err)
		}
	}
}

var badClassFlags = []string{"", "gold", "gold=x", "gold=0", "gold=8,gold=4"}

// FuzzParseClasses: ParseClasses reads gimbald's -qos-classes flag, which
// an operator typed. It must never panic, every error must wrap ErrInvalid,
// and an accepted set has one class per comma-separated part, the parts'
// trimmed names (unique), weights of at least 1 and exactly one
// PriorityHigh class. Seeds: the TestParseClasses inputs.
func FuzzParseClasses(f *testing.F) {
	f.Add("gold=8, silver=4, besteffort=1")
	for _, bad := range badClassFlags {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cs, err := ParseClasses(s)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("ParseClasses(%q): error %v does not wrap ErrInvalid", s, err)
			}
			return
		}
		parts := strings.Split(s, ",")
		if cs.Len() != len(parts) {
			t.Fatalf("ParseClasses(%q): %d classes from %d parts", s, cs.Len(), len(parts))
		}
		seen := make(map[string]bool)
		high := 0
		for i, part := range parts {
			sp := cs.Spec(i)
			name, _, _ := strings.Cut(part, "=")
			if want := strings.TrimSpace(name); sp.Name != want {
				t.Fatalf("ParseClasses(%q): class %d named %q, want %q", s, i, sp.Name, want)
			}
			if seen[sp.Name] {
				t.Fatalf("ParseClasses(%q): class %q twice", s, sp.Name)
			}
			seen[sp.Name] = true
			if sp.Weight < 1 {
				t.Fatalf("ParseClasses(%q): class %q weight %d", s, sp.Name, sp.Weight)
			}
			if sp.Priority == nvme.PriorityHigh {
				high++
			}
		}
		if high != 1 {
			t.Fatalf("ParseClasses(%q): %d PriorityHigh classes, want 1", s, high)
		}
	})
}

func TestClassIndex(t *testing.T) {
	cs := DefaultClasses()
	if i, err := cs.Index(""); err != nil || i != 0 {
		t.Fatalf(`Index("") = %d, %v`, i, err)
	}
	if i, err := cs.Index("silver"); err != nil || i != 1 {
		t.Fatalf(`Index("silver") = %d, %v`, i, err)
	}
	if _, err := cs.Index("platinum"); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("unknown class: %v", err)
	}
}

func TestNewClassSetValidation(t *testing.T) {
	if _, err := NewClassSet(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty set: %v", err)
	}
	if _, err := NewClassSet(QoSSpec{Name: "a"}, QoSSpec{Name: "a"}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("duplicate: %v", err)
	}
	if _, err := NewClassSet(QoSSpec{Weight: 1}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unnamed: %v", err)
	}
	cs, err := NewClassSet(QoSSpec{Name: "a", Weight: -5}, QoSSpec{Name: "b", Weight: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Spec(0).Weight != 1 {
		t.Fatalf("weight clamp: %d", cs.Spec(0).Weight)
	}
}
