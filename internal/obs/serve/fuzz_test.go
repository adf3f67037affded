package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"msglayer/internal/obs"
)

// FuzzServeTwinQuery sends arbitrary query strings to /twin. The handler
// must never panic, must answer 200 or 400, and every 200 body must be
// valid JSON. Under plain `go test` only the seed corpus runs; explore with
// `go test -fuzz FuzzServeTwinQuery ./internal/obs/serve`.
func FuzzServeTwinQuery(f *testing.F) {
	for _, q := range []string{
		"",
		"topology=mesh&mode=cr&load=0.15&cycles=800",
		"topology=fattree&k=4&levels=2&mode=adaptive&vc=2&load=0.3",
		"proto=cm5-stream&words=256",
		"proto=single",
		"proto=cm5-finite&words=4611686018427387904",
		"proto=cr-stream&words=-1",
		"load=NaN",
		"load=1e308&cycles=2147483647",
		"topology=mesh&w=100000&h=100000",
		"mode=warp&proto=",
		"%zz&load=%",
	} {
		f.Add(q)
	}
	srv := New(obs.NewHub())
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest("GET", "/twin", nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("?%s: 200 with invalid JSON:\n%s", query, rec.Body.Bytes())
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("?%s: status %d, want 200 or 400:\n%s", query, rec.Code, rec.Body.Bytes())
		}
	})
}
