// Package btree implements local relation storage in three shapes with one
// order and one set of readers. Tuples are ordered lexicographically; the
// index columns of a relation form a key prefix, so a join probe is a prefix
// range scan with an O(log n) seek — the access pattern the paper's inner
// relation benefits from. An index's Δ, written once per pass and then only
// read, is a Run: one flat sorted slice. A FULL is a Frozen run, with an
// optional join-key directory, or a B-tree, after the nested-BTree indexes of
// the paper's C++ runtime. Both change by the same sorted batches: Merge and
// Filter leave in their batch only the tuples that changed the store, a
// Frozen run rewriting itself once per batch and a tree descending once per
// tuple.
//
// Storage is flat: a node holds its tuples' words inline, one after another
// at a fixed stride, so a compare reads the node's own memory and an insert
// copies words instead of allocating a tuple. The stride (the tree's arity)
// is fixed by the first tuple stored and holds for the tree's lifetime.
// Emptied nodes go to a free list the tree refills from, so a tree that is
// Reset and refilled every iteration allocates nothing in steady state.
//
// Tuples handed to Ascend/AscendPrefix callbacks are views into node
// storage: valid only until the callback returns, and never to be retained
// or used as an argument to a mutating call on the same tree. Readers (Has,
// Len, Ascend, AscendPrefix) touch no tree-owned scratch,
// so any number of them may run concurrently with each other.
package btree

import (
	"fmt"

	"paralagg/internal/tuple"
)

// degree is the minimum branching factor: nodes hold between degree-1 and
// 2*degree-1 items (except the root). At arity 3 a full node's words span
// twelve cache lines, searched with five compares.
const degree = 16

const (
	maxItems = 2*degree - 1
	minItems = degree - 1
)

// Tree is a B-tree of same-arity tuples in lexicographic order. The zero
// value is an empty tree.
type Tree struct {
	root  *node
	size  int
	arity int // words per tuple; 0 until the first tuple is stored
	// free holds recycled nodes, linked through node.next: leaves in
	// free[0], interior nodes (which keep their child slice) in free[1].
	free [2]*node
}

// node holds n tuples inline: tuple i occupies words[i*arity:(i+1)*arity].
// children is nil for a leaf and holds n+1 subtrees otherwise.
type node struct {
	n        int
	words    []tuple.Value
	children []*node
	next     *node
}

// itemOverheadWords approximates per-item bookkeeping beyond the tuple
// words themselves (slack in partly filled nodes, child pointers). The
// accountant wants a cheap estimate that is a function of the contents
// alone, not a byte-exact one.
const itemOverheadWords = 4

// MemWords reports the tree's accounted storage footprint in words: stored
// tuple words plus estimated node bookkeeping. O(1).
func (t *Tree) MemWords() int64 {
	return int64(t.size) * int64(t.arity+itemOverheadWords)
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of tuples stored.
func (t *Tree) Len() int { return t.size }

// Reset empties the tree in place, moving every node to the free list.
func (t *Tree) Reset() {
	if t.root != nil {
		t.releaseAll(t.root)
		t.root = nil
	}
	t.size = 0
}

func (t *Tree) releaseAll(n *node) {
	for _, c := range n.children {
		t.releaseAll(c)
	}
	t.release(n)
}

// release puts an unlinked node on the free list of its kind.
func (t *Tree) release(n *node) {
	kind := 0
	if !n.leaf() {
		kind = 1
		n.children = n.children[:0]
	}
	n.n = 0
	n.next = t.free[kind]
	t.free[kind] = n
}

// newNode returns an empty node of the wanted kind, recycled when possible.
func (t *Tree) newNode(leaf bool) *node {
	kind := 1
	if leaf {
		kind = 0
	}
	if n := t.free[kind]; n != nil {
		t.free[kind] = n.next
		n.next = nil
		return n
	}
	n := &node{words: make([]tuple.Value, maxItems*t.arity)}
	if !leaf {
		n.children = make([]*node, 0, maxItems+1)
	}
	return n
}

// bind fixes the tree's arity on first use and rejects a later mismatch,
// which indicates a relation bookkeeping bug.
func (t *Tree) bind(arity int) {
	if t.arity == 0 {
		t.arity = arity
	}
	if arity != t.arity || arity == 0 {
		panic(fmt.Sprintf("btree: arity %d tuple in a tree of arity %d", arity, t.arity))
	}
}

func (n *node) leaf() bool { return n.children == nil }

// item returns tuple i of n as a view, capped so an append cannot reach the
// next tuple.
func (n *node) item(i, arity int) tuple.Tuple {
	return n.words[i*arity : (i+1)*arity : (i+1)*arity]
}

// cmpWords orders two equally long word runs lexicographically.
func cmpWords(a, b []tuple.Value) int {
	b = b[:len(a)]
	for i, v := range a {
		if w := b[i]; v != w {
			if v < w {
				return -1
			}
			return 1
		}
	}
	return 0
}

// search returns the index of n's first tuple whose leading len(key) words
// are not below key, and whether those words equal key.
func (n *node) search(key []tuple.Value, arity int) (int, bool) {
	k := len(key)
	lo, hi, found := 0, n.n, false
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := cmpWords(n.words[mid*arity:mid*arity+k], key); c < 0 {
			lo = mid + 1
		} else {
			hi, found = mid, c == 0
		}
	}
	return lo, found
}

// insertAt opens slot i of n and copies k into it.
func (n *node) insertAt(i int, k tuple.Tuple, arity int) {
	copy(n.words[(i+1)*arity:(n.n+1)*arity], n.words[i*arity:n.n*arity])
	copy(n.words[i*arity:], k)
	n.n++
}

// removeAt closes slot i of n.
func (n *node) removeAt(i, arity int) {
	copy(n.words[i*arity:], n.words[(i+1)*arity:n.n*arity])
	n.n--
}

// Has reports whether the exact tuple k is present.
func (t *Tree) Has(k tuple.Tuple) bool {
	if len(k) != t.arity {
		return false
	}
	for n := t.root; n != nil; {
		i, found := n.search(k, t.arity)
		if found {
			return true
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
	return false
}

// Insert adds k to the tree if not already present, copying its words so
// the caller may reuse the slice. It reports whether an insertion happened.
func (t *Tree) Insert(k tuple.Tuple) bool {
	_, existed := t.put(k, len(k))
	return !existed
}

// Merge adds batch's tuples, ascending and distinct, to the tree and leaves
// in batch only those the tree did not hold: Frozen's Merge, at one descent
// per tuple.
func (t *Tree) Merge(batch *Run) { t.MergePrefix(batch.arity, batch) }

// MergePrefix stores each of batch's tuples, ascending with distinct p-word
// prefixes, as the tree's one tuple with its leading p words: where a tuple
// with that prefix exists its remaining words are overwritten in place,
// otherwise the tuple is inserted. It leaves in batch only the tuples that
// changed the tree. It is only meaningful on a tree whose tuples all have
// distinct p-word prefixes — an aggregated relation's index, where the
// independent columns lead every stored permutation — because only then do
// the old and the new tuple occupy the same position in the order. At p the
// arity it is Merge.
func (t *Tree) MergePrefix(p int, batch *Run) {
	a, in, kept := batch.arity, batch.words, 0
	for off := 0; off < len(in); off += a {
		k := in[off : off+a]
		if slot, existed := t.put(k, p); existed {
			if cmpWords(slot[p:], k[p:]) == 0 {
				continue
			}
			copy(slot[p:], k[p:])
		}
		kept += copy(in[kept:], k)
	}
	batch.words = in[:kept]
}

// Filter removes batch's tuples, ascending and distinct, from the tree and
// leaves in batch only those the tree held.
func (t *Tree) Filter(batch *Run) {
	a, in, kept := batch.arity, batch.words, 0
	for off := 0; off < len(in); off += a {
		if k := in[off : off+a]; t.Delete(k) {
			kept += copy(in[kept:], k)
		}
	}
	batch.words = in[:kept]
}

// put descends once for the tuple whose leading p words equal k's. It
// returns that tuple's slot and true if there is one; otherwise it inserts
// k and returns the new slot. Full nodes on the way down are split before
// they are entered, so the insertion never has to walk back up.
func (t *Tree) put(k tuple.Tuple, p int) (tuple.Tuple, bool) {
	t.bind(len(k))
	a := t.arity
	if t.root == nil {
		t.root = t.newNode(true)
	} else if t.root.n == maxItems {
		old := t.root
		t.root = t.newNode(false)
		t.root.children = append(t.root.children, old)
		t.splitChild(t.root, 0)
	}
	key := k[:p]
	for n := t.root; ; {
		i, found := n.search(key, a)
		if found {
			return n.item(i, a), true
		}
		if n.leaf() {
			n.insertAt(i, k, a)
			t.size++
			return n.item(i, a), false
		}
		if n.children[i].n == maxItems {
			t.splitChild(n, i)
			switch c := cmpWords(key, n.words[i*a:i*a+p]); {
			case c == 0:
				return n.item(i, a), true
			case c > 0:
				i++
			}
		}
		n = n.children[i]
	}
}

// splitChild splits n.children[i], which must be full, moving its median
// tuple up into n.
func (t *Tree) splitChild(n *node, i int) {
	a := t.arity
	child := n.children[i]
	right := t.newNode(child.leaf())
	copy(right.words, child.words[(minItems+1)*a:maxItems*a])
	right.n = minItems
	if !child.leaf() {
		right.children = append(right.children, child.children[minItems+1:]...)
		child.children = child.children[:minItems+1]
	}
	child.n = minItems
	n.insertAt(i, child.item(minItems, a), a)
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Build fills the tree, which must be empty, from a run of arity-word
// tuples in strictly ascending order, copying the words. It assembles full
// nodes bottom-up in O(n) instead of descending once per tuple, and takes
// the nodes the free list lacks from one slab per kind (reserve).
func (t *Tree) Build(arity int, run []tuple.Value) {
	if t.size != 0 {
		panic("btree: Build into a non-empty tree")
	}
	if len(run) == 0 {
		return
	}
	t.bind(arity)
	if len(run)%arity != 0 {
		panic(fmt.Sprintf("btree: Build of %d words at arity %d", len(run), arity))
	}
	count := len(run) / arity
	if !ascending(arity, run) {
		panic("btree: Build run not strictly ascending")
	}
	height, reach := 0, maxItems
	for reach < count {
		height++
		reach = maxItems + (maxItems+1)*reach
	}
	t.reserve(buildNodes(count, height))
	t.root = t.build(run, count, height)
	t.size = count
}

// split returns how many children build gives a subtree of the given height
// over count tuples (the fewest that hold them) and how many tuples they share.
func split(count, height int) (kids, below int) {
	reach := maxItems
	for h := 1; h < height; h++ {
		reach = maxItems + (maxItems+1)*reach
	}
	kids = (count + 1 + reach) / (reach + 1)
	return kids, count - (kids - 1)
}

// buildNodes counts the leaves and interior nodes build makes for a subtree
// of the given height over count tuples; its children hold one of two sizes.
func buildNodes(count, height int) (leaves, inner int) {
	if height == 0 {
		return 1, 0
	}
	kids, below := split(count, height)
	q, big := below/kids, below%kids
	l1, i1 := buildNodes(q+1, height-1)
	l0, i0 := buildNodes(q, height-1)
	return big*l1 + (kids-big)*l0, big*i1 + (kids-big)*i0 + 1
}

// reserve stocks the free lists with leaves leaf and inner interior nodes,
// allocating what they lack of each kind in one slab, not node by node.
func (t *Tree) reserve(leaves, inner int) {
	stride := maxItems * t.arity
	for kind, want := range [2]int{leaves, inner} {
		for n := t.free[kind]; n != nil && want > 0; n = n.next {
			want--
		}
		nodes, words := make([]node, want), make([]tuple.Value, want*stride)
		kids := make([]*node, kind*want*(maxItems+1))
		for i := want - 1; i >= 0; i-- { // released last first, taken in address order
			nodes[i].words = words[i*stride : (i+1)*stride : (i+1)*stride]
			if kind == 1 {
				nodes[i].children = kids[i*(maxItems+1) : i*(maxItems+1) : (i+1)*(maxItems+1)]
			}
			t.release(&nodes[i])
		}
	}
}

// build assembles a subtree of the given height over the first count tuples
// of run. A subtree of height h holds at most 32^(h+1)-1 tuples; taking the
// fewest children that can hold count and sharing the tuples evenly among
// them keeps every node at least half full.
func (t *Tree) build(run []tuple.Value, count, height int) *node {
	a := t.arity
	n := t.newNode(height == 0)
	if height == 0 {
		copy(n.words, run[:count*a])
		n.n = count
		return n
	}
	kids, below := split(count, height)
	off := 0
	for c := 0; c < kids; c++ {
		size := below / kids
		if c < below%kids {
			size++
		}
		n.children = append(n.children, t.build(run[off*a:], size, height-1))
		off += size
		if c < kids-1 {
			copy(n.words[c*a:], run[off*a:(off+1)*a])
			n.n++
			off++
		}
	}
	return n
}

// Ascend calls fn for every tuple in order. fn returning false stops the
// scan. The tuple passed to fn is a view into the tree's storage: it must
// not be retained, and only a caller that means to corrupt the tree (the
// chaos harness's bit flip) writes through it.
func (t *Tree) Ascend(fn func(tuple.Tuple) bool) {
	if t.root != nil {
		t.ascend(t.root, fn)
	}
}

func (t *Tree) ascend(n *node, fn func(tuple.Tuple) bool) bool {
	a := t.arity
	for i := 0; i < n.n; i++ {
		if !n.leaf() && !t.ascend(n.children[i], fn) {
			return false
		}
		if !fn(n.item(i, a)) {
			return false
		}
	}
	if !n.leaf() {
		return t.ascend(n.children[n.n], fn)
	}
	return true
}

// AscendPrefix calls fn, in order, for every tuple whose first len(prefix)
// columns equal prefix. This is the join probe: seek O(log n), then scan the
// matching range. fn returning false stops the scan. The tuple passed to fn
// is a view under Ascend's rules.
func (t *Tree) AscendPrefix(prefix tuple.Tuple, fn func(tuple.Tuple) bool) {
	if t.root != nil && len(prefix) <= t.arity {
		t.ascendPrefix(t.root, prefix, fn)
	}
}

func (t *Tree) ascendPrefix(n *node, prefix tuple.Tuple, fn func(tuple.Tuple) bool) bool {
	a, k := t.arity, len(prefix)
	lo, _ := n.search(prefix, a)
	for i := lo; ; i++ {
		if !n.leaf() && !t.ascendPrefix(n.children[i], prefix, fn) {
			return false
		}
		if i == n.n || cmpWords(n.words[i*a:i*a+k], prefix) != 0 {
			// Past the range (or the node): nothing further matches.
			return true
		}
		if !fn(n.item(i, a)) {
			return false
		}
	}
}
