package paralagg_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
)

// FuzzLiveApply posts arbitrary /apply bodies to a live server backed by a
// real 2-rank SSSP engine on a tiny grid. No body may panic the server or
// break the engine: /apply answers 200 for a batch it applied and 400 for a
// body or batch it rejected — never 500 — a rejected batch applies nothing,
// and a point query answers afterwards. MaxIters bounds each re-convergence:
// an accepted batch may hold weights whose sums wrap, a cycle a min
// aggregate never stops improving.
func FuzzLiveApply(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"insert":{"edge":[[0,5,1]]}}`,
		`{"delete":{"edge":[[0,1,3]]}}`,
		`{"insert":{"spath":[[4,4,0]]},"delete":{"spath":[[4,4,0]]}}`,
		`{"insert":{"edge":[[2,2,18446744073709551615]]}}`,
		`{"insert":{"nope":[[1]]}}`,
		`{"insert":{"edge":[[1,2]]}}`,
		`{"delete":{"__base.spath":[[0,0,0]]}}`,
		`{"insert":{"edge":null}}`,
		`{"insert":{"edge":[[-1,2,3]]}}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	g := graph.Grid("fuzz-apply", 3, 3, 4, 1)
	ctx := context.Background()
	eng, err := paralagg.Open(paralagg.Config{Ranks: 2, MaxIters: 64}, queries.SSSPProgram())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { eng.Close() })
	if _, err := eng.Apply(ctx, paralagg.Mutation{
		Load: func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, []uint64{0}) },
	}); err != nil {
		f.Fatal(err)
	}
	srv, err := paralagg.StartLiveServer("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	eng.ServeLive(srv)
	url := "http://" + srv.Addr() + "/apply"

	f.Fuzz(func(t *testing.T, body []byte) {
		applies := eng.Stats().Applies
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusBadRequest:
			if n := eng.Stats().Applies; n != applies {
				t.Fatalf("/apply %q was rejected (%s) but the engine counted %d applies, was %d", body, msg, n, applies)
			}
		default:
			t.Fatalf("/apply %q: status %d: %s", body, resp.StatusCode, msg)
		}
		if _, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath", Key: []paralagg.Value{0, 4}}); err != nil {
			t.Fatalf("point query after /apply %q: %v", body, err)
		}
	})
}
