package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"paralagg/internal/obs"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func emit(s *Server, fill func(*obs.Event)) {
	e := obs.Get()
	fill(e)
	obs.Emit(s, e)
}

func feedRun(s *Server) {
	emit(s, func(e *obs.Event) { e.Kind = obs.KindRunStart; e.Ranks = 4 })
	for iter := 1; iter <= 3; iter++ {
		it := iter
		// Every rank reports the collective-derived numbers; only rank 0's
		// copy may be counted.
		for rank := 0; rank < 4; rank++ {
			rk := rank
			emit(s, func(e *obs.Event) {
				e.Kind = obs.KindIteration
				e.Rank, e.Iter = rk, it
				e.Changed = 100
				e.Bytes, e.Msgs = 1000, 10
				e.Net.Retransmits = 2
				e.Net.PeerBytesSent = []int64{0, 40, 8, 8}
				e.Net.PeerBytesRecv = []int64{0, 16, 16, 24}
			})
			emit(s, func(e *obs.Event) {
				e.Kind = obs.KindRelation
				e.Rank, e.Name = rk, "spath"
				e.Count, e.Changed = 500, 100
			})
		}
	}
	emit(s, func(e *obs.Event) { e.Kind = obs.KindCheckpoint; e.Iter = 2; e.End = 1 })
	emit(s, func(e *obs.Event) { e.Kind = obs.KindRunEnd })
}

func TestMetricsEndpoint(t *testing.T) {
	s := startServer(t)
	feedRun(s)
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"paralagg_ranks 4",
		"paralagg_iterations 3",    // rank 0 only — not 12
		"paralagg_comm_bytes 3000", // 3 iterations × 1000, not ×4 ranks
		"paralagg_net_retransmits 6",
		"paralagg_delta_changed 100",
		"paralagg_checkpoints 1",
		"paralagg_runs_started 1",
		"paralagg_runs_ended 1",
		`paralagg_relation_tuples{relation="spath"} 500`,
		`paralagg_relation_delta{relation="spath"} 100`,
		`paralagg_peer_bytes_sent{peer="1"} 120`, // rank 0 only: 3 iterations × 40
		`paralagg_peer_bytes_recv{peer="3"} 72`,
		"# TYPE paralagg_peer_bytes_sent counter",
		"# TYPE paralagg_ranks gauge",
		"# TYPE paralagg_iterations counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

func TestVarsEndpointIsValidJSON(t *testing.T) {
	s := startServer(t)
	feedRun(s)
	emit(s, func(e *obs.Event) {
		e.Kind = obs.KindRankFailed
		e.Rank, e.Iter, e.Name, e.Err = 2, 3, "allgather", "watchdog"
	})
	code, body := get(t, "http://"+s.Addr()+"/vars")
	if code != 200 {
		t.Fatalf("/vars status %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/vars is not valid JSON: %v\n%s", err, body)
	}
	if doc["iterations"].(float64) != 3 {
		t.Fatalf("iterations = %v", doc["iterations"])
	}
	rels := doc["relations"].(map[string]any)
	sp := rels["spath"].(map[string]any)
	if sp["tuples"].(float64) != 500 || sp["delta"].(float64) != 100 {
		t.Fatalf("relations = %v", rels)
	}
	lastErr, _ := doc["last_error"].(string)
	if !strings.Contains(lastErr, "rank 2 failed in allgather") {
		t.Fatalf("last_error = %q", lastErr)
	}
	if doc["rank_failures"].(float64) != 1 {
		t.Fatalf("rank_failures = %v", doc["rank_failures"])
	}
}

func TestPprofMounted(t *testing.T) {
	s := startServer(t)
	code, body := get(t, "http://"+s.Addr()+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

func TestOnAttemptResetsPerRunCounters(t *testing.T) {
	s := startServer(t)
	feedRun(s)
	s.OnAttempt(1)
	_, body := get(t, "http://"+s.Addr()+"/metrics")
	for _, want := range []string{
		"paralagg_attempt 1",
		"paralagg_iterations 0", // per-run counters reset
		"paralagg_comm_bytes 0",
		"paralagg_checkpoints 1", // lifetime counters survive
		"paralagg_runs_started 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("after OnAttempt, /metrics missing %q\n%s", want, body)
		}
	}
	if strings.Contains(body, `relation="spath"`) {
		t.Error("relation gauges should reset on a new attempt")
	}
}

func TestCheckpointAgeGauge(t *testing.T) {
	s := startServer(t)
	_, body := get(t, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(body, "paralagg_checkpoint_age_millis -1") {
		t.Fatalf("no checkpoint yet should read -1:\n%s", body)
	}
}

// fakeQuerier/fakeApplier stand in for an attached engine.
type fakeQuerier struct{ calls int }

func (f *fakeQuerier) LiveQuery(rel string, key []uint64, limit, orderBy int, desc, countOnly bool) (QueryAnswer, error) {
	f.calls++
	return QueryAnswer{Found: true, Count: 1, Value: []uint64{7}}, nil
}

type fakeApplier struct {
	calls int
	err   error
}

func (f *fakeApplier) LiveApply(insert, del map[string][][]uint64) (int, bool, error) {
	f.calls++
	return 3, true, f.err
}

func TestQueryEndpointsUnavailableUntilAttached(t *testing.T) {
	s := startServer(t)
	for _, path := range []string{"/query?rel=spath", "/topk?rel=spath&k=5"} {
		if code, _ := get(t, "http://"+s.Addr()+path); code != http.StatusServiceUnavailable {
			t.Errorf("%s before attach: status %d, want 503", path, code)
		}
	}
	resp, err := http.Post("http://"+s.Addr()+"/apply", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/apply before attach: status %d, want 503", resp.StatusCode)
	}
}

func TestQueryEndpointsServeAndSurviveRestart(t *testing.T) {
	s := startServer(t)
	q, a := &fakeQuerier{}, &fakeApplier{}
	s.AttachQuerier(q)
	s.AttachApplier(a)

	code, body := get(t, "http://"+s.Addr()+"/query?rel=spath&key=1,5")
	if code != 200 {
		t.Fatalf("/query status %d: %s", code, body)
	}
	var ans QueryAnswer
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatalf("/query not JSON: %v", err)
	}
	if !ans.Found || ans.Value[0] != 7 {
		t.Fatalf("/query answer = %+v", ans)
	}

	// Regression: a supervised restart (OnAttempt) must not detach the
	// serving backends — /query and /apply keep answering, exactly like
	// /metrics keeps scraping. The original per-run reset path only touched
	// counters; this pins that the query handlers ride the same persistent
	// registration.
	feedRun(s)
	s.OnAttempt(2)
	code, _ = get(t, "http://"+s.Addr()+"/query?rel=spath&key=1,5")
	if code != 200 {
		t.Fatalf("/query after OnAttempt: status %d, want 200", code)
	}
	if code, _ = get(t, "http://"+s.Addr()+"/topk?rel=spath&k=3&by=2&desc=1"); code != 200 {
		t.Fatalf("/topk after OnAttempt: status %d, want 200", code)
	}
	resp, err := http.Post("http://"+s.Addr()+"/apply", "application/json",
		strings.NewReader(`{"insert": {"edge": [[1,2,3]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/apply after OnAttempt: status %d: %s", resp.StatusCode, raw)
	}
	var ar struct {
		Iterations  int  `json:"iterations"`
		Incremental bool `json:"incremental"`
	}
	if err := json.Unmarshal(raw, &ar); err != nil || ar.Iterations != 3 || !ar.Incremental {
		t.Fatalf("/apply answer = %s (err %v)", raw, err)
	}
	if q.calls != 3 || a.calls != 1 {
		t.Fatalf("backend calls: query %d apply %d", q.calls, a.calls)
	}
}

func TestQueryEndpointBadRequests(t *testing.T) {
	s := startServer(t)
	s.AttachQuerier(&fakeQuerier{})
	for _, path := range []string{"/query", "/query?rel=x&key=abc", "/topk?rel=x", "/topk?rel=x&k=0"} {
		if code, _ := get(t, "http://"+s.Addr()+path); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
	}
}

// TestApplyStatusNamesWhoseFault pins /apply's status codes: a body that does
// not decode and a batch the backend rejects (ErrBadBatch) are the client's
// error, 400; any other backend failure is the server's, 500.
func TestApplyStatusNamesWhoseFault(t *testing.T) {
	s := startServer(t)
	a := &fakeApplier{}
	s.AttachApplier(a)
	for _, tc := range []struct {
		body string
		err  error
		want int
	}{
		{`{"insert": {"edge": [[1,2,3]]}}`, nil, http.StatusOK},
		{`{"insert": {"edge": [[1,2]]}}`, fmt.Errorf("%w: arity 3, tuple has 2", ErrBadBatch), http.StatusBadRequest},
		{`{"insert": {"edge": [[1,2,3]]}}`, errors.New("engine world exited"), http.StatusInternalServerError},
		{`{"insert": `, nil, http.StatusBadRequest},
	} {
		a.err = tc.err
		resp, err := http.Post("http://"+s.Addr()+"/apply", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("/apply %s with backend error %v: status %d, want %d", tc.body, tc.err, resp.StatusCode, tc.want)
		}
	}
}
