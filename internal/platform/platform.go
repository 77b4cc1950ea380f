// Package platform defines the execution platform of the paper's system
// model as a first-class type shared by every analysis layer (rta, taskset,
// sched, exact, experiments).
//
// The model is a list of named resource classes, each holding a number of
// identical machines. Classes[0] is always the host class (the m identical
// cores of the paper); every further class is an accelerator-device class.
// The paper's evaluation platform — m cores plus one accelerator — is the
// two-class instance Hetero(m); the §7 future-work generalization (several
// devices, several device types) is any longer class list. The Cores and
// Devices views preserve the historical two-field interface, so callers
// that only care about "how many cores, how many devices" keep working on
// any class shape.
package platform

import (
	"fmt"
	"strconv"
	"strings"
)

// HostClass is the index of the host class in Platform.Classes: class 0 by
// construction. dag.Node.Class uses the same indexing, so a node with
// Class c executes on Classes[c].
const HostClass = 0

// ResourceClass is one named class of identical machines (host cores, GPUs,
// FPGAs, ...). Machines within a class are interchangeable; machines of
// different classes are not.
type ResourceClass struct {
	// Name labels the class in reports and platform specs ("host", "dev",
	// "gpu", ...). Names are cosmetic: analyses identify classes by index.
	Name string `json:"name"`
	// Count is the number of identical machines of this class.
	Count int `json:"count"`
}

// Platform describes the execution platform as an ordered list of resource
// classes. Classes[0] is the host class; Classes[1:] are device classes.
// The zero value (no classes) is invalid; use the constructors.
type Platform struct {
	Classes []ResourceClass `json:"classes"`
}

// New builds a platform from an explicit class list. The first class is the
// host class.
func New(classes ...ResourceClass) Platform {
	return Platform{Classes: append([]ResourceClass(nil), classes...)}
}

// Hetero returns the paper's platform: m host cores and one accelerator.
func Hetero(m int) Platform {
	return Platform{Classes: []ResourceClass{{Name: "host", Count: m}, {Name: "dev", Count: 1}}}
}

// Homogeneous returns an m-core host-only platform; offload nodes are
// executed by the host as if they were regular nodes.
func Homogeneous(m int) Platform {
	return Platform{Classes: []ResourceClass{{Name: "host", Count: m}}}
}

// Heteros returns one paper platform (m cores + 1 device) per host size,
// the shape every experiment sweep uses.
func Heteros(ms ...int) []Platform {
	ps := make([]Platform, len(ms))
	for i, m := range ms {
		ps[i] = Hetero(m)
	}
	return ps
}

// Parse builds a platform from a compact spec:
//
//	"4"                     4 host cores, no devices
//	"4+1"                   4 host cores + 1 device (the paper's shape)
//	"4+2+1"                 4 host cores + two device classes (2 and 1 machines)
//	"host=4,gpu=1,fpga=2"   named classes; the first entry is the host class
//
// The two grammars cannot be mixed. Unnamed device classes are called
// "dev", "dev2", "dev3", ....
func Parse(spec string) (Platform, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Platform{}, fmt.Errorf("platform: empty spec")
	}
	var p Platform
	if strings.Contains(spec, "=") {
		for _, part := range strings.Split(spec, ",") {
			name, countStr, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok || name == "" {
				return Platform{}, fmt.Errorf("platform: spec entry %q is not name=count", part)
			}
			count, err := strconv.Atoi(countStr)
			if err != nil {
				return Platform{}, fmt.Errorf("platform: spec entry %q: %v", part, err)
			}
			p.Classes = append(p.Classes, ResourceClass{Name: name, Count: count})
		}
	} else {
		for i, part := range strings.Split(spec, "+") {
			count, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return Platform{}, fmt.Errorf("platform: spec entry %q: %v", part, err)
			}
			name := "host"
			switch {
			case i == 1:
				name = "dev"
			case i > 1:
				name = fmt.Sprintf("dev%d", i)
			}
			p.Classes = append(p.Classes, ResourceClass{Name: name, Count: count})
		}
	}
	if err := p.Validate(); err != nil {
		return Platform{}, err
	}
	return p, nil
}

// Cores is the compatibility view of the host class: the number of host
// cores (m in the paper), 0 on a class-less zero value.
func (p Platform) Cores() int {
	if len(p.Classes) == 0 {
		return 0
	}
	return p.Classes[HostClass].Count
}

// Devices is the compatibility view of the accelerator side: the total
// machine count across every device class. 0 means a homogeneous platform
// where Offload nodes execute on host cores.
func (p Platform) Devices() int {
	total := 0
	for _, c := range p.Classes[min(1, len(p.Classes)):] {
		total += c.Count
	}
	return total
}

// NumClasses returns the number of resource classes (including host).
func (p Platform) NumClasses() int { return len(p.Classes) }

// Count returns the machine count of class c, or 0 when c is out of range.
func (p Platform) Count(c int) int {
	if c < 0 || c >= len(p.Classes) {
		return 0
	}
	return p.Classes[c].Count
}

// ClassName returns the name of class c, synthesizing "class<c>" when the
// class is unnamed or out of range.
func (p Platform) ClassName(c int) string {
	if c >= 0 && c < len(p.Classes) && p.Classes[c].Name != "" {
		return p.Classes[c].Name
	}
	return fmt.Sprintf("class%d", c)
}

// Total returns the machine count across all classes.
func (p Platform) Total() int {
	total := 0
	for _, c := range p.Classes {
		total += c.Count
	}
	return total
}

// Base returns the first resource ID of class c: resources are numbered
// 0..Total()-1 with class 0 first (host cores are 0..m-1, exactly the
// historical numbering when the platform is m cores + devices).
func (p Platform) Base(c int) int {
	base := 0
	for i := 0; i < c && i < len(p.Classes); i++ {
		base += p.Classes[i].Count
	}
	return base
}

// ClassOf returns the class owning resource ID res, or -1 when res is out
// of range.
func (p Platform) ClassOf(res int) int {
	if res < 0 {
		return -1
	}
	for c, rc := range p.Classes {
		if res < rc.Count {
			return c
		}
		res -= rc.Count
	}
	return -1
}

// WithDeviceCount returns a copy of p whose total device count is d: d == 0
// drops every device class; otherwise the platform must have at most one
// device class (with several, "the device count" is ambiguous), whose count
// becomes d (a "dev" class is appended to a homogeneous platform).
func (p Platform) WithDeviceCount(d int) (Platform, error) {
	host := ResourceClass{Name: "host"}
	if len(p.Classes) > 0 {
		host = p.Classes[HostClass]
	}
	switch {
	case d == 0:
		return Platform{Classes: []ResourceClass{host}}, nil
	case len(p.Classes) <= 1:
		return Platform{Classes: []ResourceClass{host, {Name: "dev", Count: d}}}, nil
	case len(p.Classes) == 2:
		dev := p.Classes[1]
		dev.Count = d
		return Platform{Classes: []ResourceClass{host, dev}}, nil
	default:
		return Platform{}, fmt.Errorf("platform: cannot override the device count of %v: several device classes", p)
	}
}

// Validate checks the platform is usable: at least the host class with one
// machine, and no negative counts.
func (p Platform) Validate() error {
	if len(p.Classes) == 0 {
		return fmt.Errorf("platform: no resource classes (needs at least a host class)")
	}
	if p.Classes[HostClass].Count < 1 {
		return fmt.Errorf("platform: needs at least 1 core, got %d", p.Classes[HostClass].Count)
	}
	for i, c := range p.Classes[1:] {
		if c.Count < 0 {
			return fmt.Errorf("platform: negative device count %d in class %s", c.Count, p.ClassName(i+1))
		}
	}
	return nil
}

// String renders the platform compactly: "m=4" (homogeneous), "m=4+1dev"
// (the paper's shape), "m=4+1gpu+2fpga" (multi-class).
func (p Platform) String() string {
	if len(p.Classes) == 0 {
		return "m=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "m=%d", p.Classes[HostClass].Count)
	for i, c := range p.Classes[1:] {
		if c.Count == 0 && len(p.Classes) == 2 {
			// A single empty device class reads as homogeneous.
			continue
		}
		fmt.Fprintf(&b, "+%d%s", c.Count, p.ClassName(i+1))
	}
	return b.String()
}
