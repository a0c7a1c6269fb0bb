package mpi

import "fmt"

// Collective schedules: the shape a collective's point-to-point messages
// take. The flat schedule is the original gather-to-root + broadcast star;
// the tree schedule is a topology-aware binomial tree (binomial across host
// leaders, binomial within each host, so at most one message per collective
// crosses each host boundary). A schedule is a pure function of (kind,
// topology, world size, root), fixed for the world's lifetime, so all ranks
// materialize the same shape without coordination.

// ScheduleKind selects how collectives route their messages.
type ScheduleKind uint8

const (
	// ScheduleFlat composes every collective as gather-to-root + broadcast:
	// O(P) serialized hops through rank 0, minimal latency at tiny P.
	ScheduleFlat ScheduleKind = iota
	// ScheduleTree routes through a topology-aware binomial tree: O(log P)
	// critical-path hops, root traffic cut from O(P) to O(log P) messages.
	ScheduleTree
)

// ParseScheduleKind maps the CLI/config spelling to a kind. The empty
// string is the flat default.
func ParseScheduleKind(s string) (ScheduleKind, error) {
	switch s {
	case "", "flat":
		return ScheduleFlat, nil
	case "tree":
		return ScheduleTree, nil
	}
	return 0, fmt.Errorf("unknown collective schedule %q (want flat or tree)", s)
}

func (k ScheduleKind) String() string {
	switch k {
	case ScheduleFlat:
		return "flat"
	case ScheduleTree:
		return "tree"
	}
	return fmt.Sprintf("ScheduleKind(%d)", int(k))
}

// rankTree is one rank's view of a reduction tree: who it receives from /
// forwards to during the reduce-up and fan-down phases, plus the whole
// tree's height (the critical-path hop count one way — each hop is bounded
// by the receive watchdog, so a depth-d collective is bounded by d
// deadlines).
type rankTree struct {
	parent   int   // -1 when this rank is the tree root
	children []int // fan order: larger subtrees first
	depth    int
}

// binomialPositions builds the classic binomial tree over positions
// 0..n-1 (position 0 is the root): position p's parent clears p's lowest
// set bit, and p's children are p | 2^k for 2^k below p's lowest set bit.
// Children are ordered largest-subtree-first so the fan-down starts the
// deepest subtree earliest.
func binomialPositions(n int) (parent []int, children [][]int) {
	parent = make([]int, n)
	children = make([][]int, n)
	parent[0] = -1
	for p := 1; p < n; p++ {
		low := p & -p
		parent[p] = p &^ low
	}
	for p := 0; p < n; p++ {
		// Bits strictly below p's lowest set bit; for the root, every bit up
		// to the highest power of two below n.
		start := (p & -p) >> 1
		if p == 0 {
			start = 1
			for start<<1 < n {
				start <<= 1
			}
		}
		for bit := start; bit >= 1; bit >>= 1 {
			if ch := p | bit; ch < n {
				children[p] = append(children[p], ch)
			}
		}
	}
	return parent, children
}

// fullTree holds a whole tree in rank space.
type fullTree struct {
	parent   []int
	children [][]int
}

func (t *fullTree) height() int {
	h := 0
	for r := range t.parent {
		d := 0
		for p := r; t.parent[p] >= 0; p = t.parent[p] {
			d++
		}
		if d > h {
			h = d
		}
	}
	return h
}

// graft attaches the binomial tree over order (order[0] is the subtree
// root) into ft, leaving order[0]'s parent untouched.
func (ft *fullTree) graft(order []int) {
	parent, children := binomialPositions(len(order))
	for p := 1; p < len(order); p++ {
		ft.parent[order[p]] = order[parent[p]]
	}
	for p := 0; p < len(order); p++ {
		for _, ch := range children[p] {
			ft.children[order[p]] = append(ft.children[order[p]], order[ch])
		}
	}
}

// topoTree builds the two-level topology-aware tree rooted at root: a
// binomial tree across host leaders (the root leads its own host; every
// other host is led by its lowest rank) and a binomial tree within each
// host rooted at its leader. Exactly one edge per foreign host crosses a
// host boundary, so one collective costs one cross-host message per host
// rather than one per rank. Under a uniform (single-host) topology this is
// a plain binomial tree.
func topoTree(topo *Topology, size, root int) *fullTree {
	if topo == nil || topo.Ranks() != size {
		topo = NewUniformTopology(size)
	}
	ft := &fullTree{parent: make([]int, size), children: make([][]int, size)}
	for r := range ft.parent {
		ft.parent[r] = -1
	}
	// Group members per host, ascending by rank.
	members := make([][]int, topo.NumHosts())
	for r := 0; r < size; r++ {
		members[topo.Host(r)] = append(members[topo.Host(r)], r)
	}
	// Leaders: root for its own host, lowest rank elsewhere; the root's
	// leader goes first, the rest in host-id order.
	rootHost := topo.Host(root)
	leaders := []int{root}
	for h, m := range members {
		if h != rootHost && len(m) > 0 {
			leaders = append(leaders, m[0])
		}
	}
	ft.graft(leaders)
	// Within each host: leader first, remaining members ascending.
	for h, m := range members {
		if len(m) == 0 {
			continue
		}
		leader := m[0]
		if h == rootHost {
			leader = root
		}
		order := []int{leader}
		for _, r := range m {
			if r != leader {
				order = append(order, r)
			}
		}
		ft.graft(order)
	}
	return ft
}

// rootTree returns this rank's cached view of the topology tree rooted at
// rank 0, the root of every collective, materializing it on first use. Its
// inputs (topology, world size) are fixed for the comm's lifetime.
func (c *Comm) rootTree() *rankTree {
	if c.tree == nil {
		ft := topoTree(c.world.topo, c.world.size, 0)
		c.tree = &rankTree{parent: ft.parent[c.rank], children: ft.children[c.rank], depth: ft.height()}
	}
	return c.tree
}

// ScheduleDepth is the critical-path hop count of one collective one way
// under the world's schedule: P-1 for the flat star, the tree's height for
// tree (the fan-down retraces it). The planner charges its voting round this
// many message latencies.
func (c *Comm) ScheduleDepth() int {
	size := c.world.size
	if size <= 1 {
		return 0
	}
	if c.sched == ScheduleFlat {
		return size - 1
	}
	return c.rootTree().depth
}
