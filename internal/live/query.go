// Serving endpoints: a long-lived engine attaches itself to the live server
// and the mux gains three more surfaces —
//
//	/query   GET  ?rel=NAME[&key=1,2][&count=1]      point lookup / prefix scan
//	/topk    GET  ?rel=NAME&k=N[&by=COL][&desc=1]    top-k by column
//	/apply   POST {"insert": {...}, "delete": {...}} mutation batch
//
// The handlers are registered unconditionally in Start — before a backend is
// attached (and between supervised restarts, exactly like /metrics) they
// answer 503 rather than 404, so dashboards and probes never lose the
// target. OnAttempt keeps the attached backends: a supervised restart swaps
// the world underneath, not the serving surface.
package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// QueryAnswer is the wire form of one query result.
type QueryAnswer struct {
	Found  bool       `json:"found"`
	Value  []uint64   `json:"value,omitempty"`
	Count  uint64     `json:"count"`
	Tuples [][]uint64 `json:"tuples,omitempty"`
}

// QueryBackend answers point queries from resident converged state. Engine
// implements it; the indirection keeps this package free of the root
// package (which imports it).
type QueryBackend interface {
	LiveQuery(relation string, key []uint64, limit, orderBy int, desc, countOnly bool) (QueryAnswer, error)
}

// ErrBadBatch marks a mutation batch the backend rejects before applying
// anything (an undeclared relation, a tuple of the wrong arity): /apply
// answers it 400, where any other failure is the server's (500).
var ErrBadBatch = errors.New("live: bad mutation batch")

// ApplyBackend applies one mutation batch of base facts. A batch it rejects
// as malformed fails with an error wrapping ErrBadBatch.
type ApplyBackend interface {
	LiveApply(insert, del map[string][][]uint64) (iterations int, incremental bool, err error)
}

// queryBox/applyBox keep the atomic.Value concrete type stable across
// different backend implementations.
type queryBox struct{ b QueryBackend }
type applyBox struct{ b ApplyBackend }

// AttachQuerier publishes the query backend; /query and /topk serve from it
// on the next request. Safe to call at any time, including after supervised
// restarts.
func (s *Server) AttachQuerier(b QueryBackend) { s.querier.Store(queryBox{b}) }

// AttachApplier publishes the mutation backend for /apply.
func (s *Server) AttachApplier(b ApplyBackend) { s.applier.Store(applyBox{b}) }

func (s *Server) queryBackend() QueryBackend {
	if v, ok := s.querier.Load().(queryBox); ok {
		return v.b
	}
	return nil
}

func (s *Server) applyBackend() ApplyBackend {
	if v, ok := s.applier.Load().(applyBox); ok {
		return v.b
	}
	return nil
}

// parseKey parses "1,2,3" (or "") into column values.
func parseKey(raw string) ([]uint64, error) {
	if raw == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	key := make([]uint64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad key column %q: %v", p, err)
		}
		key = append(key, v)
	}
	return key, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleQuery serves GET /query: ?rel=NAME is required; &key=1,2 filters by
// canonical prefix (the full independent key of an aggregated relation is an
// O(1) lookup); &count=1 returns only the cardinality.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	b := s.queryBackend()
	if b == nil {
		http.Error(w, "no engine attached", http.StatusServiceUnavailable)
		return
	}
	rel := r.URL.Query().Get("rel")
	if rel == "" {
		http.Error(w, "missing ?rel=", http.StatusBadRequest)
		return
	}
	key, err := parseKey(r.URL.Query().Get("key"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	countOnly := r.URL.Query().Get("count") == "1"
	ans, err := b.LiveQuery(rel, key, 0, 0, false, countOnly)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, ans)
}

// handleTopK serves GET /topk: ?rel=NAME&k=N with optional &by=COL (order
// column, default 0), &desc=1, &key=prefix.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	b := s.queryBackend()
	if b == nil {
		http.Error(w, "no engine attached", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	rel := q.Get("rel")
	if rel == "" {
		http.Error(w, "missing ?rel=", http.StatusBadRequest)
		return
	}
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k < 1 {
		http.Error(w, "missing or bad ?k=", http.StatusBadRequest)
		return
	}
	by := 0
	if raw := q.Get("by"); raw != "" {
		if by, err = strconv.Atoi(raw); err != nil {
			http.Error(w, "bad ?by=", http.StatusBadRequest)
			return
		}
	}
	key, err := parseKey(q.Get("key"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ans, err := b.LiveQuery(rel, key, k, by, q.Get("desc") == "1", false)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, ans)
}

// applyRequest is the POST /apply body.
type applyRequest struct {
	Insert map[string][][]uint64 `json:"insert,omitempty"`
	Delete map[string][][]uint64 `json:"delete,omitempty"`
}

// applyResponse reports what the batch cost.
type applyResponse struct {
	Iterations  int  `json:"iterations"`
	Incremental bool `json:"incremental"`
}

// handleApply serves POST /apply: a JSON mutation batch, answered after the
// engine re-converges. A body that does not decode, or a batch the backend
// rejects (ErrBadBatch), is the client's error.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	b := s.applyBackend()
	if b == nil {
		http.Error(w, "no engine attached", http.StatusServiceUnavailable)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req applyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	iters, incr, err := b.LiveApply(req.Insert, req.Delete)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrBadBatch) {
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, applyResponse{Iterations: iters, Incremental: incr})
}
