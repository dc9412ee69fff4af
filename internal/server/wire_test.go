package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire.golden from the current server")

// wireClasses is the two-class mix the wire tests use: a Poisson
// class and a Pascal (peaky) class of width 2, in aggregate units.
const wireClasses = `"classes":[{"name":"voice","a":1,"alpha":0.0024,"mu":1},{"name":"video","a":2,"alpha":0.0012,"beta":0.0004,"mu":0.5}]`

// wireStep is one request of the wire sequence.
type wireStep struct {
	name, method, path, body string
}

// wirePad makes a body larger than the wire server's 4 KiB cap.
var wirePad = `"name":"` + strings.Repeat("x", 5000) + `"`

// wireSteps covers every POST endpoint: a miss, a hit, an asymptotic
// and an exact dispatch answer, and one 400, 413 and 422 each (the
// scenario endpoint has no dispatch), then the /metrics layout.
var wireSteps = []wireStep{
	{"blocking miss", "POST", "/v1/blocking", `{"n1":16,"n2":16,` + wireClasses + `}`},
	{"blocking hit", "POST", "/v1/blocking", `{"n1":16,"n2":16,` + wireClasses + `}`},
	{"blocking asymptotic", "POST", "/v1/blocking", `{"n1":4096,"n2":4096,"dispatch":"asymptotic",` + wireClasses + `}`},
	{"blocking exact", "POST", "/v1/blocking", `{"n1":16,"n2":16,"dispatch":"exact","algorithm":"alg2",` + wireClasses + `}`},
	{"blocking 400", "POST", "/v1/blocking", `{"n1":16,"n2":16,"algorithm":"alg3",` + wireClasses + `}`},
	{"blocking 413", "POST", "/v1/blocking", `{"n1":16,"n2":16,"classes":[{` + wirePad + `,"a":1,"alpha":0.1,"mu":1}]}`},
	{"blocking 422", "POST", "/v1/blocking", `{"n1":16,"n2":16,"classes":[{"a":1,"alpha":0.1,"mu":0}]}`},

	{"revenue miss", "POST", "/v1/revenue", `{"n1":12,"n2":12,"weights":[1,3],"gradients":true,` + wireClasses + `}`},
	{"revenue hit", "POST", "/v1/revenue", `{"n1":12,"n2":12,"weights":[1,3],` + wireClasses + `}`},
	{"revenue asymptotic", "POST", "/v1/revenue", `{"n1":4096,"n2":4096,"dispatch":"asymptotic","weights":[1,3],"gradients":true,` + wireClasses + `}`},
	{"revenue exact", "POST", "/v1/revenue", `{"n1":12,"n2":12,"dispatch":"exact","weights":[1,3],` + wireClasses + `}`},
	{"revenue 400", "POST", "/v1/revenue", `{"n1":12,"n2":12,"weights":[1],` + wireClasses + `}`},
	{"revenue 413", "POST", "/v1/revenue", `{"n1":12,"n2":12,"weights":[1],"classes":[{` + wirePad + `,"a":1,"alpha":0.1,"mu":1}]}`},
	{"revenue 422", "POST", "/v1/revenue", `{"n1":12,"n2":12,"weights":[1],"units":"route","classes":[{"a":1,"alpha":0.1,"beta":2,"mu":1}]}`},

	{"admission miss", "POST", "/v1/admission", `{"n1":10,"n2":10,"class":1,"weights":[1,3],` + wireClasses + `}`},
	{"admission hit", "POST", "/v1/admission", `{"n1":10,"n2":10,"class":0,"weights":[1,3],` + wireClasses + `}`},
	{"admission asymptotic", "POST", "/v1/admission", `{"n1":4096,"n2":4096,"dispatch":"asymptotic","class":1,"weights":[1,3],` + wireClasses + `}`},
	{"admission exact", "POST", "/v1/admission", `{"n1":10,"n2":10,"dispatch":"exact","class":1,"weights":[1,3],` + wireClasses + `}`},
	{"admission reservation", "POST", "/v1/admission", `{"n1":10,"n2":10,"class":1,"policy":"reservation","limits":[10,6],"state":[2,1],` + wireClasses + `}`},
	{"admission 400", "POST", "/v1/admission", `{"n1":10,"n2":10,"class":2,"weights":[1,3],` + wireClasses + `}`},
	{"admission 413", "POST", "/v1/admission", `{"n1":10,"n2":10,"class":0,"weights":[1],"classes":[{` + wirePad + `,"a":1,"alpha":0.1,"mu":1}]}`},
	{"admission 422", "POST", "/v1/admission", `{"n1":10,"n2":10,"class":0,"weights":[1],"classes":[{"a":1,"alpha":0.1,"mu":0}]}`},

	{"sweep miss", "POST", "/v1/sweep", `{"n1":9,"n2":9,"points":[{"n1":3,"n2":4},{"n1":9,"n2":9}],"weights":[1,3],` + wireClasses + `}`},
	{"sweep hit", "POST", "/v1/sweep", `{"n1":9,"n2":9,` + wireClasses + `}`},
	{"sweep asymptotic", "POST", "/v1/sweep", `{"n1":4096,"n2":4096,"dispatch":"asymptotic","points":[{"n1":2048,"n2":4096}],` + wireClasses + `}`},
	{"sweep exact", "POST", "/v1/sweep", `{"n1":9,"n2":9,"dispatch":"exact","algorithm":"alg2","points":[{"n1":9,"n2":9}],` + wireClasses + `}`},
	{"sweep 400", "POST", "/v1/sweep", `{"n1":9,"n2":9,"points":[{"n1":10,"n2":9}],` + wireClasses + `}`},
	{"sweep 413", "POST", "/v1/sweep", `{"n1":9,"n2":9,"classes":[{` + wirePad + `,"a":1,"alpha":0.1,"mu":1}]}`},
	{"sweep 422", "POST", "/v1/sweep", `{"n1":9,"n2":9,"classes":[{"a":1,"alpha":0.1,"mu":0}]}`},

	{"grid miss", "POST", "/v1/grid", `{"n1":14,"n2":14,"points":[{},{"n1":7},{"classes":[{"class":0,"alpha":0.003}]}],"weights":[1,3],` + wireClasses + `}`},
	{"grid hit", "POST", "/v1/grid", `{"n1":14,"n2":14,"points":[{},{"n1":7},{"classes":[{"class":0,"alpha":0.003}]}],"weights":[1,3],` + wireClasses + `}`},
	{"grid asymptotic", "POST", "/v1/grid", `{"n1":4096,"n2":4096,"dispatch":"asymptotic","points":[{},{"n1":2048}],` + wireClasses + `}`},
	{"grid exact", "POST", "/v1/grid", `{"n1":14,"n2":14,"dispatch":"exact","points":[{},{"n1":3,"n2":3}],` + wireClasses + `}`},
	{"grid 400", "POST", "/v1/grid", `{"n1":14,"n2":14,"points":[],` + wireClasses + `}`},
	{"grid 413", "POST", "/v1/grid", `{"n1":14,"n2":14,"points":[{}],"classes":[{` + wirePad + `,"a":1,"alpha":0.1,"mu":1}]}`},
	{"grid 422", "POST", "/v1/grid", `{"n1":14,"n2":14,"points":[{},{"classes":[{"class":0,"mu":0}]}],"classes":[{"a":1,"alpha":0.1,"mu":1}]}`},

	{"scenario miss", "POST", "/v1/scenario", `{"discipline":"slotted","topology":{"n1":8,"n2":8},"params":{"load":0.5}}`},
	{"scenario hit", "POST", "/v1/scenario", `{"discipline":"slotted","topology":{"n1":8,"n2":8},"params":{"load":0.5},"measures":["acceptance","throughput"]}`},
	{"scenario 400 fields", "POST", "/v1/scenario", `{"discipline":"slotted","topology":{"n1":8},"params":{"load":1.5,"lambda":2}}`},
	{"scenario 400 measures", "POST", "/v1/scenario", `{"discipline":"slotted","topology":{"n1":8,"n2":8},"params":{"load":0.5},"measures":["throughput","bogus"]}`},
	{"scenario 400 json", "POST", "/v1/scenario", `{"discipline":"slotted"} extra`},
	{"scenario 413 limit", "POST", "/v1/scenario", `{"discipline":"slotted","topology":{"n1":128,"n2":128},"params":{"load":0.5}}`},
	{"scenario 413 body", "POST", "/v1/scenario", `{"discipline":"slotted","topology":{"n1":8,"n2":8},"params":{"load":0.5}` + strings.Repeat(" ", 5000) + `}`},
	{"scenario 422", "POST", "/v1/scenario", `{"discipline":"quantum","topology":{"n1":8,"n2":8},"params":{"load":0.5}}`},

	{"healthz", "GET", "/healthz", ""},
	{"readyz", "GET", "/readyz", ""},
	{"cluster 404", "GET", "/v1/cluster", ""},
}

// metricsLayout renders a JSON document's key structure with every
// number replaced by '#': the metrics keys and their order are wire
// contract, their values (counts, latencies) are not.
func metricsLayout(t *testing.T, data []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var b strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch v := tok.(type) {
		case json.Delim:
			b.WriteString(v.String())
		case json.Number:
			b.WriteString("# ")
		case string:
			fmt.Fprintf(&b, "%q ", v)
		default:
			fmt.Fprintf(&b, "%v ", v)
		}
	}
	return b.String()
}

// TestWireGolden pins the wire surface of a single node: for every
// step of wireSteps the status, Content-Type and body bytes, and the
// /metrics key layout after the whole sequence. The golden file was
// recorded before the request pipeline was introduced; run with
// -update-wire only for a deliberate change of the wire contract.
func TestWireGolden(t *testing.T) {
	s, err := New(Config{MaxDim: 64, MaxBodyBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	var got bytes.Buffer
	for _, st := range wireSteps {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(st.method, st.path, strings.NewReader(st.body)))
		fmt.Fprintf(&got, "== %s\n%s %s\n%d %q %q\n%s", st.name, st.method, st.path,
			rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get("X-Xbar-Node"), rec.Body.Bytes())
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fmt.Fprintf(&got, "== metrics layout\n%d %q\n%s\n", rec.Code, rec.Header().Get("Content-Type"), metricsLayout(t, rec.Body.Bytes()))

	path := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("wire output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// warmHitAllocs is the allocation budget of one warm request per
// endpoint, measured with the httptest request and recorder included
// (about 11 allocations of the total). Nothing may rise above it.
// The scenario budget is ten below its first recording (64): the
// pipeline builds the spec key once per request, not twice. The other
// rows decode and encode without reflection (decode.go, encode.go),
// which saves 14 to 15 allocations per request, and the five
// exact-tier rows read their cache entry with no lock, which saves
// one more.
var warmHitAllocs = []struct {
	name, path, body string
	max              float64
}{
	{"blocking", "/v1/blocking", `{"n1":16,"n2":16,` + wireClasses + `}`, 37},
	{"revenue", "/v1/revenue", `{"n1":16,"n2":16,"weights":[1,3],` + wireClasses + `}`, 40},
	{"admission", "/v1/admission", `{"n1":16,"n2":16,"class":1,"weights":[1,3],` + wireClasses + `}`, 39},
	{"sweep", "/v1/sweep", `{"n1":16,"n2":16,"points":[{"n1":8,"n2":16},{"n1":16,"n2":16}],` + wireClasses + `}`, 38},
	{"grid", "/v1/grid", `{"n1":16,"n2":16,"points":[{},{"n1":8}],` + wireClasses + `}`, 55},
	{"asymptotic blocking", "/v1/blocking", `{"n1":4096,"n2":4096,"dispatch":"asymptotic",` + wireClasses + `}`, 46},
	{"scenario", "/v1/scenario", `{"discipline":"slotted","topology":{"n1":8,"n2":8},"params":{"load":0.5}}`, 53},
}

// TestWarmHitAllocs pins the allocations of a warm request on every
// POST endpoint: the first request fills the cache, then each
// measured request is a hit (or, for the asymptotic tier, a
// lattice-free answer).
func TestWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, tc := range warmHitAllocs {
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body.Bytes())
			}
		}
		serve()
		got := testing.AllocsPerRun(200, serve)
		t.Logf("%s: %v allocations per warm request", tc.name, got)
		if tc.max > 0 && got > tc.max {
			t.Errorf("%s: %v allocations per warm request, want <= %v", tc.name, got, tc.max)
		}
	}
}

// TestWireContentLength serves every wire step, plus a sweep and a
// grid answer larger than net/http's 2 KiB response buffer, over a
// real listener and checks that each response declares a
// Content-Length equal to its body: none goes out chunked.
func TestWireContentLength(t *testing.T) {
	s, err := New(Config{MaxDim: 64, MaxBodyBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var grid []string
	for i := 1; i <= 14; i++ {
		grid = append(grid, fmt.Sprintf(`{"n1":%d}`, i))
	}
	steps := append(wireSteps[:len(wireSteps):len(wireSteps)],
		wireStep{"large sweep", "POST", "/v1/sweep", `{"n1":64,"n2":64,` + wireClasses + `}`},
		wireStep{"large grid", "POST", "/v1/grid", `{"n1":14,"n2":14,"points":[` + strings.Join(grid, ",") + `],"weights":[1,3],` + wireClasses + `}`})
	for _, st := range steps {
		req, err := http.NewRequest(st.method, ts.URL+st.path, strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close() //lint:allow errcheck the body is fully read
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if strings.HasPrefix(st.name, "large") && (resp.StatusCode != http.StatusOK || len(body) <= 2048) {
			t.Fatalf("%s: status %d, %d-byte body; want a 200 over 2 KiB", st.name, resp.StatusCode, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) > 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v, body %d bytes",
				st.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}
