package paralagg

import (
	"context"
	"fmt"
	"sort"

	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// QuerySpec describes one point query against converged relations. The zero
// value of each option is the neutral default, so specs read as option
// structs: set only what the query needs.
type QuerySpec struct {
	// Relation names the relation to read.
	Relation string
	// Key filters tuples whose canonical-order prefix equals Key. For an
	// aggregated relation a Key covering the full independent prefix is an
	// exact O(1) arena lookup (the serving fast path: dist(src,dst),
	// component(v)); shorter prefixes scan. Empty matches every tuple.
	Key []Value
	// Limit, when positive, returns only the top Limit matches ordered by
	// the OrderBy column (top-k). 0 returns all matches.
	Limit int
	// OrderBy is the canonical column index top-k orders by (default 0).
	OrderBy int
	// Desc reverses the top-k order (largest values first).
	Desc bool
	// CountOnly skips materializing tuples: only Count (and Found) are set.
	// With an empty Key this is the O(1) size read.
	CountOnly bool
	// PerRank additionally reports every rank's local tuple count for the
	// relation (Figure 3's distribution data). Implies CountOnly semantics
	// for the extra field only — Tuples are still returned unless CountOnly
	// is also set.
	PerRank bool
}

// QueryResult carries a query's answer.
type QueryResult struct {
	// Relation echoes the queried relation.
	Relation string
	// Found reports whether any tuple matched.
	Found bool
	// Value holds the dependent columns of an exact aggregated lookup
	// (e.g. the distance for dist(src,dst)); nil otherwise.
	Value []Value
	// Tuples holds the matching tuples in canonical column order (all
	// matches, or the top Limit under OrderBy). Omitted when CountOnly.
	Tuples []Tuple
	// Count is the number of matching tuples (before Limit truncation).
	Count uint64
	// PerRank, when requested, holds every rank's local tuple count.
	PerRank []int
}

// Query answers a point query from the resident converged state. It never
// runs a fixpoint and never performs collective communication: exact
// aggregated lookups are O(1) arena probes on the owning rank's shard, prefix
// scans walk only the matching index range. Queries run concurrently with
// each other and are excluded only while a mutation batch is in flight.
//
// On an in-process world the engine sees every rank's shard, so answers are
// global. A distributed engine answers from this process's shard only.
func (e *Engine) Query(ctx context.Context, spec QuerySpec) (QueryResult, error) {
	var qr QueryResult
	if ctx != nil {
		select {
		case <-ctx.Done():
			return qr, ctx.Err()
		default:
		}
	}
	if _, closed, broken, runErr := e.state(); closed {
		return qr, fmt.Errorf("paralagg: Query on a closed engine")
	} else if broken {
		return qr, runErr
	}
	e.qmu.RLock()
	defer e.qmu.RUnlock()

	qr.Relation = spec.Relation
	rels := make([]*relation.Relation, len(e.insts))
	for i, inst := range e.insts {
		rl := inst.Relation(spec.Relation)
		if rl == nil {
			return qr, fmt.Errorf("paralagg: unknown relation %q", spec.Relation)
		}
		rels[i] = rl
	}
	if err := validateSpec(spec, rels[0].Arity); err != nil {
		return qr, err
	}
	defer e.queries.Add(1)

	if spec.PerRank {
		qr.PerRank = make([]int, 0, len(rels))
		for _, rl := range rels {
			qr.PerRank = append(qr.PerRank, rl.LocalFullCount())
		}
	}

	// Exact aggregated lookup: the full independent key owns exactly one
	// arena slot on one rank — probe each shard until it answers.
	if rels[0].Agg != nil && len(spec.Key) == rels[0].Indep {
		for _, rl := range rels {
			if v, ok := rl.Lookup(tuple.Tuple(spec.Key)); ok {
				qr.Found = true
				qr.Count = 1
				qr.Value = append([]Value(nil), v...)
				if !spec.CountOnly {
					t := make(Tuple, 0, rl.Arity)
					t = append(t, spec.Key...)
					t = append(t, v...)
					qr.Tuples = []Tuple{t}
				}
				return qr, nil
			}
		}
		return qr, nil
	}

	// O(1) size read: no key, no tuples wanted.
	if spec.CountOnly && len(spec.Key) == 0 {
		for _, rl := range rels {
			qr.Count += uint64(rl.LocalFullCount())
		}
		qr.Found = qr.Count > 0
		return qr, nil
	}

	// Prefix scan across shards.
	m := matches{spec: spec}
	for _, rl := range rels {
		eachLocal(rl, tuple.Tuple(spec.Key), m.add)
	}
	qr.Count = m.count
	qr.Found = qr.Count > 0
	qr.Tuples = m.finish()
	return qr, nil
}

// Query answers a point query from this rank's view of the program. Unlike
// Engine.Query it is collective — Count and PerRank aggregate over the world
// (every rank must issue identical Query calls in the same order) — while
// Tuples holds only this rank's local matches.
func (r *Rank) Query(spec QuerySpec) (QueryResult, error) {
	var qr QueryResult
	rl, err := r.relation(spec.Relation)
	if err != nil {
		return qr, err
	}
	if err := validateSpec(spec, rl.Arity); err != nil {
		return qr, err
	}
	qr.Relation = spec.Relation
	if spec.PerRank {
		qr.PerRank = rl.PerRankCounts()
	}
	if spec.CountOnly && len(spec.Key) == 0 {
		qr.Count = rl.GlobalFullCount()
		qr.Found = qr.Count > 0
		return qr, nil
	}
	m := matches{spec: spec}
	eachLocal(rl, tuple.Tuple(spec.Key), m.add)
	qr.Count = r.Reduce(m.count, OpSum)
	qr.Found = qr.Count > 0
	qr.Tuples = m.finish()
	return qr, nil
}

// validateSpec rejects malformed specs with the same error on every caller.
func validateSpec(spec QuerySpec, arity int) error {
	if len(spec.Key) > arity {
		return fmt.Errorf("paralagg: query key has %d columns but relation %q has arity %d", len(spec.Key), spec.Relation, arity)
	}
	if spec.Limit < 0 {
		return fmt.Errorf("paralagg: QuerySpec.Limit must be >= 0, got %d", spec.Limit)
	}
	if spec.OrderBy != 0 && (spec.OrderBy < 0 || spec.OrderBy >= arity) {
		return fmt.Errorf("paralagg: QuerySpec.OrderBy %d out of range for relation %q (arity %d)", spec.OrderBy, spec.Relation, arity)
	}
	return nil
}

// matches collects a scan's answer as the scan goes: every match when the
// spec has no Limit, otherwise only the best Limit so far, kept in order.
// Tuples arrive as views into relation storage, so a match is cloned only
// when it is kept, and a displaced tuple's storage takes its successor: a
// top-k read allocates at most Limit tuples however many it walks.
type matches struct {
	spec   QuerySpec
	count  uint64
	tuples []Tuple
}

// before is the top-k order: the OrderBy column (reversed under Desc), ties
// broken lexicographically. Stored tuples are distinct, so it is total.
func (m *matches) before(a, b tuple.Tuple) bool {
	if x, y := a[m.spec.OrderBy], b[m.spec.OrderBy]; x != y {
		return (x < y) != m.spec.Desc
	}
	return lexLess(Tuple(a), Tuple(b))
}

func (m *matches) add(t tuple.Tuple) {
	m.count++
	switch k := m.spec.Limit; {
	case m.spec.CountOnly:
	case k == 0:
		m.tuples = append(m.tuples, append(Tuple(nil), t...))
	case len(m.tuples) < k || m.before(t, tuple.Tuple(m.tuples[k-1])):
		var slot Tuple
		if len(m.tuples) < k {
			slot = make(Tuple, len(t))
			m.tuples = append(m.tuples, nil)
		} else {
			slot = m.tuples[k-1]
		}
		copy(slot, t)
		at := sort.Search(len(m.tuples)-1, func(i int) bool { return m.before(t, tuple.Tuple(m.tuples[i])) })
		copy(m.tuples[at+1:], m.tuples[at:len(m.tuples)-1])
		m.tuples[at] = slot
	}
}

// finish returns the collected tuples: the top Limit in their order, or all
// matches in canonical lexicographic order so the answer is deterministic
// across runs.
func (m *matches) finish() []Tuple {
	if m.spec.Limit == 0 {
		sort.Slice(m.tuples, func(i, j int) bool { return lexLess(m.tuples[i], m.tuples[j]) })
	}
	return m.tuples
}

func lexLess(a, b Tuple) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// eachLocal walks this shard's stored result tuples matching a canonical
// prefix of at most Arity words (validateSpec): the accumulator's rows for
// aggregated relations, in one loop, the canonical index for sets. Tuples
// passed to fn are views into that storage, valid only until fn returns —
// clone before retaining.
func eachLocal(rl *relation.Relation, prefix tuple.Tuple, fn func(tuple.Tuple)) {
	if rl.Agg != nil {
		arity := rl.Arity
	rows:
		for w := rl.AccWords(); len(w) >= arity; w = w[arity:] {
			for i, v := range prefix {
				if w[i] != v {
					continue rows
				}
			}
			fn(w[:arity:arity])
		}
		return
	}
	full := rl.Canonical().Full()
	if len(prefix) == 0 {
		full.Ascend(func(t tuple.Tuple) bool {
			fn(t)
			return true
		})
		return
	}
	full.AscendPrefix(prefix, func(t tuple.Tuple) bool {
		fn(t)
		return true
	})
}
