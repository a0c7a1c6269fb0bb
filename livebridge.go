package paralagg

import (
	"context"
	"fmt"

	"paralagg/internal/live"
)

// LiveQuery implements the live server's query backend: /query and /topk
// route here. It adapts wire types to QuerySpec and never runs a fixpoint.
func (e *Engine) LiveQuery(relation string, key []uint64, limit, orderBy int, desc, countOnly bool) (live.QueryAnswer, error) {
	spec := QuerySpec{
		Relation: relation, Limit: limit, OrderBy: orderBy,
		Desc: desc, CountOnly: countOnly,
	}
	for _, v := range key {
		spec.Key = append(spec.Key, Value(v))
	}
	qr, err := e.Query(context.Background(), spec)
	if err != nil {
		return live.QueryAnswer{}, err
	}
	ans := live.QueryAnswer{Found: qr.Found, Count: qr.Count}
	for _, v := range qr.Value {
		ans.Value = append(ans.Value, uint64(v))
	}
	for _, t := range qr.Tuples {
		row := make([]uint64, len(t))
		for i, v := range t {
			row[i] = uint64(v)
		}
		ans.Tuples = append(ans.Tuples, row)
	}
	return ans, nil
}

// LiveApply implements the live server's mutation backend: /apply routes
// here, blocking until the engine re-converges. A batch naming an undeclared
// relation or holding a tuple of the wrong arity fails before any rank
// sees it, wrapped in live.ErrBadBatch.
func (e *Engine) LiveApply(insert, del map[string][][]uint64) (int, bool, error) {
	m := Mutation{}
	if len(insert) > 0 {
		m.Insert = map[string][]Tuple{}
		for name, rows := range insert {
			m.Insert[name] = wireTuples(rows)
		}
	}
	if len(del) > 0 {
		m.Delete = map[string][]Tuple{}
		for name, rows := range del {
			m.Delete[name] = wireTuples(rows)
		}
	}
	if err := e.validateMutation(m); err != nil {
		return 0, false, fmt.Errorf("%w: %v", live.ErrBadBatch, err)
	}
	stats, err := e.Apply(context.Background(), m)
	if err != nil {
		return 0, false, err
	}
	return stats.Iterations, stats.Incremental, nil
}

func wireTuples(rows [][]uint64) []Tuple {
	out := make([]Tuple, 0, len(rows))
	for _, row := range rows {
		t := make(Tuple, len(row))
		for i, v := range row {
			t[i] = Value(v)
		}
		out = append(out, t)
	}
	return out
}

// ServeLive attaches the engine to a live server: /query, /topk, and /apply
// begin answering from the engine's resident state (alongside the server's
// /metrics, /vars, and pprof surfaces). Pass the same server as
// Config.Observer when Opening the engine to stream its counters too.
func (e *Engine) ServeLive(s *LiveServer) {
	s.AttachQuerier(e)
	s.AttachApplier(e)
}
