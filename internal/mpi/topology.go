package mpi

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
)

// Topology describes where ranks live relative to each other: a host (or
// rack) grouping plus optional per-host-pair link costs. The tree schedule
// uses the grouping to keep reduction traffic inside a host before crossing
// the expensive links. The link costs (LinkCost) are the input of link-cost
// emulation — delivering a message after a delay its link prices — which
// nothing performs yet: no run reads them.
//
// A gang launched by -spawn derives its topology from the peer address list
// (every rank whose peer address resolves to the same host lands in the same
// group); -topology=<file> overrides that with an explicit map. In-process
// worlds default to a uniform single-host topology, under which the
// topology-aware tree degenerates to a plain binomial tree.
type Topology struct {
	hosts []int    // per-rank host index
	names []string // host names, indexed by host id
	// costs holds the relative cross-link cost per unordered host pair,
	// keyed [min,max]. Missing pairs default to DefaultCrossHostCost.
	costs map[[2]int]float64
}

// DefaultCrossHostCost is the relative cost of a cross-host link when the
// topology names the grouping but no explicit cost line: one cross-host word
// is priced like this many same-host words. Like LinkCost it is input for
// link-cost emulation only.
const DefaultCrossHostCost = 4.0

// NewUniformTopology places all size ranks on one host with unit link costs
// — the correct model for in-process worlds and single-machine gangs.
func NewUniformTopology(size int) *Topology {
	t := &Topology{hosts: make([]int, size), names: []string{"local"}}
	return t
}

// TopologyFromHosts builds a topology from a per-rank host name list (entry
// r names the host rank r runs on). Host ids are assigned in first-appearance
// order, so rank 0's host is host 0.
func TopologyFromHosts(hostnames []string) *Topology {
	t := &Topology{hosts: make([]int, len(hostnames))}
	index := make(map[string]int)
	for r, name := range hostnames {
		id, ok := index[name]
		if !ok {
			id = len(t.names)
			index[name] = id
			t.names = append(t.names, name)
		}
		t.hosts[r] = id
	}
	return t
}

// Ranks returns the number of ranks the topology describes.
func (t *Topology) Ranks() int { return len(t.hosts) }

// NumHosts returns the number of distinct hosts.
func (t *Topology) NumHosts() int { return len(t.names) }

// Host returns the host index rank runs on.
func (t *Topology) Host(rank int) int { return t.hosts[rank] }

// HostName returns the name of the host rank runs on.
func (t *Topology) HostName(rank int) string { return t.names[t.hosts[rank]] }

// SameHost reports whether two ranks share a host.
func (t *Topology) SameHost(a, b int) bool { return t.hosts[a] == t.hosts[b] }

// LinkCost returns the relative per-word cost of the link between two ranks:
// 0 for a rank to itself, 1 within a host, and the configured (or default)
// cross-host cost otherwise. It is the input link-cost emulation will read;
// no schedule or cost model reads it.
func (t *Topology) LinkCost(a, b int) float64 {
	if a == b {
		return 0
	}
	ha, hb := t.hosts[a], t.hosts[b]
	if ha == hb {
		return 1
	}
	if ha > hb {
		ha, hb = hb, ha
	}
	if c, ok := t.costs[[2]int{ha, hb}]; ok {
		return c
	}
	return DefaultCrossHostCost
}

// Validate checks the topology against a world size.
func (t *Topology) Validate(size int) error {
	if len(t.hosts) != size {
		return fmt.Errorf("topology describes %d ranks, world has %d", len(t.hosts), size)
	}
	return nil
}

// ParseTopology reads the topology file format: one directive per line,
// '#' comments and blank lines ignored.
//
//	host <rank> <hostname>   places a rank; every rank in [0, size) needs one
//	cost <hostA> <hostB> <x> prices the hostA<->hostB link at x (relative to
//	                         the same-host cost of 1); optional, symmetric
func ParseTopology(r io.Reader, size int) (*Topology, error) {
	t := &Topology{hosts: make([]int, size)}
	index := make(map[string]int)
	seen := make([]bool, size)
	type costLine struct {
		a, b string
		x    float64
	}
	var costs []costLine
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "host":
			if len(fields) != 3 {
				return nil, fmt.Errorf("topology line %d: want 'host <rank> <name>', got %q", lineno, line)
			}
			rank, err := strconv.Atoi(fields[1])
			if err != nil || rank < 0 || rank >= size {
				return nil, fmt.Errorf("topology line %d: rank %q out of range [0, %d)", lineno, fields[1], size)
			}
			if seen[rank] {
				return nil, fmt.Errorf("topology line %d: rank %d placed twice", lineno, rank)
			}
			seen[rank] = true
			name := fields[2]
			id, ok := index[name]
			if !ok {
				id = len(t.names)
				index[name] = id
				t.names = append(t.names, name)
			}
			t.hosts[rank] = id
		case "cost":
			if len(fields) != 4 {
				return nil, fmt.Errorf("topology line %d: want 'cost <hostA> <hostB> <x>', got %q", lineno, line)
			}
			// ParseFloat accepts "NaN" and "Inf" without error, and NaN <= 0
			// is false: demand a cost a schedule can actually compare.
			x, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || !(x > 0) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("topology line %d: link cost %q must be a positive finite number", lineno, fields[3])
			}
			if fields[1] == fields[2] {
				return nil, fmt.Errorf("topology line %d: cost names host %q twice (a link joins two hosts; same-host cost is always 1)", lineno, fields[1])
			}
			costs = append(costs, costLine{a: fields[1], b: fields[2], x: x})
		default:
			return nil, fmt.Errorf("topology line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for r, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("topology places no host for rank %d", r)
		}
	}
	for _, c := range costs {
		ha, oka := index[c.a]
		hb, okb := index[c.b]
		if !oka || !okb {
			return nil, fmt.Errorf("topology cost line names unknown host %q/%q", c.a, c.b)
		}
		if ha > hb {
			ha, hb = hb, ha
		}
		if t.costs == nil {
			t.costs = make(map[[2]int]float64)
		}
		t.costs[[2]int{ha, hb}] = c.x
	}
	return t, nil
}

// ParseTopologyFile is ParseTopology over a file path.
func ParseTopologyFile(path string, size int) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ParseTopology(f, size)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// TopologyFromAddrs derives a host grouping from a peer address list
// ("host:port" per rank, as the -spawn gang launcher hands its children):
// ranks whose addresses share a host part share a group. Malformed entries
// each get their own group, which is the conservative (all-cross) reading.
func TopologyFromAddrs(addrs []string) *Topology {
	hosts := make([]string, len(addrs))
	for i, a := range addrs {
		if h, _, err := net.SplitHostPort(a); err == nil && h != "" {
			hosts[i] = h
		} else {
			hosts[i] = fmt.Sprintf("addr%d", i)
		}
	}
	return TopologyFromHosts(hosts)
}
