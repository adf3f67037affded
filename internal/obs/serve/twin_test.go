package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"msglayer/internal/obs"
)

// TestObsServeTwinNet: /twin answers a closed-form network prediction from
// query parameters, without touching the hub.
func TestObsServeTwinNet(t *testing.T) {
	srv := New(obs.NewHub())
	body := get(t, srv, "/twin?topology=mesh&mode=cr&load=0.15&cycles=800")
	var doc struct {
		Point      string  `json:"point"`
		Load       float64 `json:"load"`
		MeanLat    float64 `json:"mean_latency_cycles"`
		Calibrated bool    `json:"calibrated"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if doc.Point != "mesh(4,4)/cr/vc1" || doc.Load != 0.15 || !doc.Calibrated {
		t.Errorf("unexpected prediction: %+v", doc)
	}
	if doc.MeanLat <= 0 {
		t.Errorf("mean latency %v", doc.MeanLat)
	}
}

// TestObsServeTwinProto: ?proto= selects the protocol twin.
func TestObsServeTwinProto(t *testing.T) {
	srv := New(obs.NewHub())
	body := get(t, srv, "/twin?proto=cm5-stream&words=256")
	var doc struct {
		Scenario string `json:"scenario"`
		Total    uint64 `json:"total_instr"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if doc.Scenario != "cm5-stream" || doc.Total != 7501 {
		t.Errorf("unexpected prediction: %+v", doc)
	}
}

// TestObsServeTwinBadRequest: invalid points answer 400 with the reason.
func TestObsServeTwinBadRequest(t *testing.T) {
	srv := New(obs.NewHub())
	for _, path := range []string{
		"/twin?mode=warp",
		"/twin?load=0",
		"/twin?load=junk",
		"/twin?cycles=junk",
		"/twin?topology=torus",
		"/twin?proto=warp",
		"/twin?proto=cm5-stream&words=junk",
		"/twin?proto=cm5-stream&words=4611686018427387904", // instruction count overflows
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, rec.Code)
		}
		if strings.TrimSpace(rec.Body.String()) == "" {
			t.Errorf("GET %s: empty error body", path)
		}
	}
}

// TestObsServeIndexListsTwin: the index advertises the endpoint.
func TestObsServeIndexListsTwin(t *testing.T) {
	srv := New(obs.NewHub())
	if body := get(t, srv, "/"); !strings.Contains(string(body), "/twin") {
		t.Errorf("index missing /twin:\n%s", body)
	}
}
