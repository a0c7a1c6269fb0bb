package mpi

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestParseScheduleKind(t *testing.T) {
	cases := []struct {
		in   string
		want ScheduleKind
	}{
		{"", ScheduleFlat},
		{"flat", ScheduleFlat},
		{"tree", ScheduleTree},
		{"ring", ScheduleRing},
		{"auto", ScheduleAuto},
	}
	for _, c := range cases {
		got, err := ParseScheduleKind(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseScheduleKind(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if got.String() == "" {
			t.Fatalf("kind %v has no name", got)
		}
	}
	if _, err := ParseScheduleKind("star"); err == nil {
		t.Fatal("ParseScheduleKind should reject unknown spellings")
	}
}

// checkTree verifies ft is a valid tree over size ranks rooted at root:
// every non-root has a parent, parent/children agree, and all ranks are
// reachable from the root (no cycles, no orphans).
func checkTree(t *testing.T, ft *fullTree, size, root int) {
	t.Helper()
	if ft.parent[root] != -1 {
		t.Fatalf("root %d has parent %d", root, ft.parent[root])
	}
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		p := ft.parent[r]
		if p < 0 || p >= size {
			t.Fatalf("rank %d has no parent (got %d)", r, p)
		}
		found := false
		for _, ch := range ft.children[p] {
			if ch == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("rank %d not listed among parent %d's children %v", r, p, ft.children[p])
		}
	}
	seen := make([]bool, size)
	var walk func(r int)
	var visited int
	walk = func(r int) {
		if seen[r] {
			t.Fatalf("cycle: rank %d visited twice", r)
		}
		seen[r] = true
		visited++
		for _, ch := range ft.children[r] {
			walk(ch)
		}
	}
	walk(root)
	if visited != size {
		t.Fatalf("tree reaches %d of %d ranks", visited, size)
	}
}

func TestBinomialPositions(t *testing.T) {
	for n := 1; n <= 17; n++ {
		parent, children := binomialPositions(n)
		ft := &fullTree{parent: parent, children: children}
		checkTree(t, ft, n, 0)
		for p := 1; p < n; p++ {
			if want := p &^ (p & -p); parent[p] != want {
				t.Fatalf("n=%d: parent[%d] = %d, want %d", n, p, parent[p], want)
			}
		}
	}
	// Binomial height is ceil(log2 n): 8 ranks -> 3 hops, not 7.
	parent, children := binomialPositions(8)
	ft := &fullTree{parent: parent, children: children}
	if h := ft.height(); h != 3 {
		t.Fatalf("binomial height over 8 = %d, want 3", h)
	}
}

func TestTopoTreeUniformIsBinomial(t *testing.T) {
	for _, size := range []int{1, 2, 5, 8, 16} {
		for root := 0; root < size; root++ {
			ft := topoTree(NewUniformTopology(size), size, root)
			checkTree(t, ft, size, root)
		}
		// Rooted at 0 the uniform tree is the plain binomial shape.
		ft := topoTree(nil, size, 0)
		parent, _ := binomialPositions(size)
		for p := 1; p < size; p++ {
			if ft.parent[p] != parent[p] {
				t.Fatalf("size %d: uniform topo parent[%d] = %d, binomial says %d",
					size, p, ft.parent[p], parent[p])
			}
		}
	}
}

func TestTopoTreeOneCrossEdgePerHost(t *testing.T) {
	// 8 ranks on 3 hosts: a={0,1,2}, b={3,4,5}, c={6,7}.
	topo := TopologyFromHosts([]string{"a", "a", "a", "b", "b", "b", "c", "c"})
	for root := 0; root < 8; root++ {
		ft := topoTree(topo, 8, root)
		checkTree(t, ft, 8, root)
		cross := 0
		for r := 0; r < 8; r++ {
			if p := ft.parent[r]; p >= 0 && !topo.SameHost(r, p) {
				cross++
			}
		}
		// Exactly one tree edge crosses into each foreign host.
		if cross != topo.NumHosts()-1 {
			t.Fatalf("root %d: %d cross-host edges, want %d", root, cross, topo.NumHosts()-1)
		}
	}
}

func TestSimilarityTreePrefersHeavyPairs(t *testing.T) {
	// Traffic says 0<->3 and 1<->2 talk heavily; the MST must keep those
	// pairs adjacent.
	w := make([][]int64, 4)
	for i := range w {
		w[i] = make([]int64, 4)
	}
	w[0][3], w[3][0] = 1000, 1000
	w[1][2], w[2][1] = 900, 900
	w[0][1] = 10 // weak link to connect the components
	ft := similarityTree(w, 4, 0)
	checkTree(t, ft, 4, 0)
	if ft.parent[3] != 0 {
		t.Fatalf("heavy pair 0<->3 not a tree edge: parent[3] = %d", ft.parent[3])
	}
	if ft.parent[2] != 1 && ft.parent[1] != 2 {
		t.Fatalf("heavy pair 1<->2 not a tree edge: parents %v", ft.parent)
	}
	// Deterministic: same matrix, same tree.
	ft2 := similarityTree(w, 4, 0)
	for r := range ft.parent {
		if ft.parent[r] != ft2.parent[r] {
			t.Fatal("similarityTree is not deterministic")
		}
	}
}

func TestRingOrderGroupsHosts(t *testing.T) {
	topo := TopologyFromHosts([]string{"a", "b", "a", "b", "a", "b"})
	order := ringOrder(topo, 6)
	want := []int{0, 2, 4, 1, 3, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ringOrder = %v, want %v", order, want)
		}
	}
	// Uniform topology keeps rank order.
	order = ringOrder(nil, 4)
	for i := range order {
		if order[i] != i {
			t.Fatalf("uniform ringOrder = %v, want identity", order)
		}
	}
}

func TestParseTopology(t *testing.T) {
	const good = `
# two hosts, slow link
host 0 nodeA
host 1 nodeA
host 2 nodeB
cost nodeA nodeB 8
`
	topo, err := ParseTopology(strings.NewReader(good), 3)
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}
	if topo.NumHosts() != 2 || !topo.SameHost(0, 1) || topo.SameHost(0, 2) {
		t.Fatalf("grouping wrong: hosts=%d", topo.NumHosts())
	}
	if c := topo.LinkCost(0, 2); c != 8 {
		t.Fatalf("LinkCost(0,2) = %v, want 8", c)
	}
	if c := topo.LinkCost(0, 1); c != 1 {
		t.Fatalf("LinkCost(0,1) = %v, want 1", c)
	}
	if c := topo.LinkCost(1, 1); c != 0 {
		t.Fatalf("LinkCost(1,1) = %v, want 0", c)
	}
	if err := topo.Validate(3); err != nil {
		t.Fatalf("Validate(3): %v", err)
	}
	if err := topo.Validate(4); err == nil {
		t.Fatal("Validate(4) should fail for a 3-rank topology")
	}

	bad := []string{
		"host 0 a",                        // rank 1 unplaced
		"host 0 a\nhost 0 b\nhost 1 c",    // rank 0 placed twice
		"host 0 a\nhost 2 b",              // rank 2 out of range
		"host 0 a\nhost 1 b\ncost a x 2",  // unknown host in cost
		"host 0 a\nhost 1 b\ncost a b -1", // non-positive cost
		"host 0 a\nhost 1 b\nroute a b",   // unknown directive
		"host 0 a\nhost 1 b\ncost a b",    // short cost line
	}
	for i, src := range bad {
		if _, err := ParseTopology(strings.NewReader(src), 2); err == nil {
			t.Fatalf("bad topology %d accepted: %q", i, src)
		}
	}
	// Costs no schedule could route by: strconv.ParseFloat takes NaN and Inf
	// without error, and a same-host pair can never be looked up. Each is
	// rejected naming the line it stands on.
	for _, cost := range []string{"cost a b NaN", "cost a b +Inf", "cost a b -Inf", "cost a b 0", "cost a a 7"} {
		_, err := ParseTopology(strings.NewReader("host 0 a\nhost 1 b\n"+cost), 2)
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%q: err = %v, want a rejection naming line 3", cost, err)
		}
	}
}

// FuzzParseTopology feeds arbitrary text to the topology parser. Whatever
// the bytes: no panic, and a topology that parses describes the world size
// it was parsed for with link costs a schedule can compare — finite and
// non-negative between every pair of ranks.
func FuzzParseTopology(f *testing.F) {
	f.Add("# two hosts, slow link\nhost 0 nodeA\nhost 1 nodeA\nhost 2 nodeB\ncost nodeA nodeB 8\n")
	f.Add("host 0 a\nhost 1 b\nhost 2 b\ncost a b NaN")
	f.Add("host 0 a\nhost 1 b\nhost 2 b\ncost a b +Inf")
	f.Add("host 0 a\nhost 1 b\nhost 2 b\ncost a a 7")
	f.Fuzz(func(t *testing.T, src string) {
		const size = 3
		topo, err := ParseTopology(strings.NewReader(src), size)
		if err != nil {
			return
		}
		if err := topo.Validate(size); err != nil {
			t.Fatalf("parsed topology fails Validate(%d): %v", size, err)
		}
		for a := 0; a < size; a++ {
			for b := 0; b < size; b++ {
				if c := topo.LinkCost(a, b); !(c >= 0) || math.IsInf(c, 0) {
					t.Fatalf("LinkCost(%d,%d) = %v from %q", a, b, c, src)
				}
			}
		}
	})
}

func TestTopologyFromAddrs(t *testing.T) {
	topo := TopologyFromAddrs([]string{"10.0.0.1:9000", "10.0.0.1:9001", "10.0.0.2:9000"})
	if topo.NumHosts() != 2 || !topo.SameHost(0, 1) || topo.SameHost(0, 2) {
		t.Fatalf("address-derived grouping wrong: %d hosts", topo.NumHosts())
	}
	// Malformed entries land in their own group.
	topo = TopologyFromAddrs([]string{"bogus", "bogus"})
	if topo.SameHost(0, 1) {
		t.Fatal("malformed addresses must not be grouped together")
	}
}

func TestScheduleDepthAndVote(t *testing.T) {
	w := NewWorld(8)
	w.SetSchedule(ScheduleAuto)
	err := w.Run(func(c *Comm) error {
		if !c.ScheduleAuto() || c.Schedule() != ScheduleTree {
			return fmt.Errorf("auto should start on the tree, got %v", c.Schedule())
		}
		if d := c.ScheduleDepth(); d != 3 {
			return fmt.Errorf("tree depth over 8 = %d, want 3", d)
		}
		if c.ScheduleVote() != 0 {
			return fmt.Errorf("no large payload seen, vote should be 0")
		}
		// A large AllreduceVec flips this rank's vote to the ring.
		vec := make([]Word, ringMinWords)
		vec[0] = Word(c.Rank())
		out := make([]Word, len(vec))
		c.AllreduceVec(vec, out, OpSum)
		if out[0] != 28 {
			return fmt.Errorf("allreducevec sum = %d, want 28", out[0])
		}
		if c.ScheduleVote() != 1 {
			return fmt.Errorf("large payload seen, vote should be 1")
		}
		// Majority ring votes switch the schedule; minority keeps the tree.
		c.ApplyScheduleVote(8)
		if c.Schedule() != ScheduleRing {
			return fmt.Errorf("unanimous ring vote ignored")
		}
		if d := c.ScheduleDepth(); d != 7 {
			return fmt.Errorf("ring depth over 8 = %d, want 7", d)
		}
		c.ApplyScheduleVote(2)
		if c.Schedule() != ScheduleTree {
			return fmt.Errorf("minority ring vote should fall back to tree")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fixed (non-auto) schedules ignore the vote.
	w2 := NewWorld(4)
	w2.SetSchedule(ScheduleRing)
	err = w2.Run(func(c *Comm) error {
		c.ApplyScheduleVote(0)
		if c.Schedule() != ScheduleRing {
			return fmt.Errorf("fixed ring schedule changed by vote")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityScheduleFromTraffic(t *testing.T) {
	// A world fed a traffic matrix must build its trees from it.
	w := NewWorld(4)
	w.SetSchedule(ScheduleTree)
	traffic := make([][]int64, 4)
	for i := range traffic {
		traffic[i] = make([]int64, 4)
	}
	traffic[0][3], traffic[3][0] = 500, 500
	traffic[0][1], traffic[1][2] = 400, 300
	w.SetTraffic(traffic)
	err := w.Run(func(c *Comm) error {
		tr := c.treeFor(0)
		if c.Rank() == 3 && tr.parent != 0 {
			return fmt.Errorf("similarity tree ignored the heavy 0<->3 pair: parent=%d", tr.parent)
		}
		// And the collectives still work over it.
		if got := c.Allreduce(Word(c.Rank()+1), OpSum); got != 10 {
			return fmt.Errorf("allreduce over similarity tree = %d, want 10", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
