package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// fuzzPaths are the endpoints FuzzEndpoints drives: every POST
// endpoint but /v1/scenario, which FuzzSpec covers at the decoder.
var fuzzPaths = []string{"/v1/blocking", "/v1/revenue", "/v1/admission", "/v1/sweep", "/v1/grid"}

// FuzzEndpoints runs arbitrary bodies through the non-scenario POST
// endpoints and holds the server to its error taxonomy: every answer
// is 200, 400, 413, 422 or 503 with a JSON document, never a 500, and
// a rejected request allocates less than 1 MiB whatever its body asks
// for. The small MaxDim keeps the exact fills cheap.
func FuzzEndpoints(f *testing.F) {
	for _, tc := range validationCases {
		for i, p := range fuzzPaths {
			if p == tc.path {
				f.Add(uint8(i), []byte(tc.body))
			}
		}
	}
	for _, st := range wireSteps {
		for i, p := range fuzzPaths {
			if p == st.path {
				f.Add(uint8(i), []byte(st.body))
			}
		}
	}
	s, err := New(Config{MaxDim: 16, MaxBodyBytes: 4096, MaxSweepPoints: 64, MaxGridPoints: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		path := fuzzPaths[int(ep)%len(fuzzPaths)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusUnprocessableEntity, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %q: status %d with a body that is not JSON: %q", path, body, rec.Code, rec.Body.Bytes())
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; rec.Code != http.StatusOK && alloc >= 1<<20 {
			t.Fatalf("%s %q: rejected with %d after allocating %d bytes, want < 1 MiB", path, body, rec.Code, alloc)
		}
	})
}
