package btree

import "paralagg/internal/tuple"

// Delete removes the exact tuple k from the tree, reporting whether it was
// present. k must not be a view into this tree. Emptied nodes return to the
// free list.
func (t *Tree) Delete(k tuple.Tuple) bool {
	if t.root == nil || len(k) != t.arity {
		return false
	}
	deleted := t.delete(t.root, k)
	if deleted {
		t.size--
	}
	if r := t.root; r.n == 0 {
		if r.leaf() {
			t.root = nil
		} else {
			t.root = r.children[0]
		}
		t.release(r)
	}
	return deleted
}

// delete removes k from the subtree rooted at n. n is guaranteed by the
// caller to have more than minItems items (or to be the root), so removal
// cannot underflow it.
func (t *Tree) delete(n *node, k tuple.Tuple) bool {
	a := t.arity
	i, found := n.search(k, a)
	if n.leaf() {
		if found {
			n.removeAt(i, a)
		}
		return found
	}
	if found {
		// Overwrite with a neighbour in the order (the left subtree's
		// maximum or the right subtree's minimum) and delete that tuple
		// below instead. The copy in n is the key for the descent: it stays
		// put while the subtree's nodes shift under it.
		if left := n.children[i]; left.n > minItems {
			copy(n.item(i, a), left.max(a))
			return t.delete(left, n.item(i, a))
		}
		if right := n.children[i+1]; right.n > minItems {
			copy(n.item(i, a), right.min(a))
			return t.delete(right, n.item(i, a))
		}
		// Both neighbours minimal: merge them around tuple i, then recurse.
		t.mergeChildren(n, i)
		return t.delete(n.children[i], k)
	}
	// Not in this node: descend into children[i], topping it up first.
	if n.children[i].n == minItems {
		i = t.fill(n, i)
	}
	return t.delete(n.children[i], k)
}

// max returns the largest tuple in the subtree.
func (n *node) max(arity int) tuple.Tuple {
	for !n.leaf() {
		n = n.children[n.n]
	}
	return n.item(n.n-1, arity)
}

// min returns the smallest tuple in the subtree.
func (n *node) min(arity int) tuple.Tuple {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.item(0, arity)
}

// fill ensures children[i] has more than minItems items by borrowing from a
// sibling or merging. It returns the index of the child that now covers the
// original key range (merging with the left sibling shifts it left by one).
func (t *Tree) fill(n *node, i int) int {
	switch {
	case i > 0 && n.children[i-1].n > minItems:
		t.borrowLeft(n, i)
	case i < n.n && n.children[i+1].n > minItems:
		t.borrowRight(n, i)
	case i > 0:
		i--
		t.mergeChildren(n, i)
	default:
		t.mergeChildren(n, i)
	}
	return i
}

// borrowLeft rotates one tuple from children[i-1] through slot i-1 of n
// into children[i].
func (t *Tree) borrowLeft(n *node, i int) {
	a := t.arity
	child, left := n.children[i], n.children[i-1]
	child.insertAt(0, n.item(i-1, a), a)
	left.n--
	copy(n.item(i-1, a), left.item(left.n, a))
	if !child.leaf() {
		last := len(left.children) - 1
		child.children = append(child.children, nil)
		copy(child.children[1:], child.children)
		child.children[0] = left.children[last]
		left.children = left.children[:last]
	}
}

// borrowRight rotates one tuple from children[i+1] through slot i of n
// into children[i].
func (t *Tree) borrowRight(n *node, i int) {
	a := t.arity
	child, right := n.children[i], n.children[i+1]
	child.insertAt(child.n, n.item(i, a), a)
	copy(n.item(i, a), right.item(0, a))
	right.removeAt(0, a)
	if !child.leaf() {
		child.children = append(child.children, right.children[0])
		right.children = append(right.children[:0], right.children[1:]...)
	}
}

// mergeChildren folds tuple i of n and children[i+1] into children[i].
func (t *Tree) mergeChildren(n *node, i int) {
	a := t.arity
	child, right := n.children[i], n.children[i+1]
	child.insertAt(child.n, n.item(i, a), a)
	copy(child.words[child.n*a:], right.words[:right.n*a])
	child.n += right.n
	child.children = append(child.children, right.children...)
	n.removeAt(i, a)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
	t.release(right)
}
