package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spq"
)

// statusOfCode is the HTTP status each error code travels with; the
// canceled slug has two, for a client that hung up (499) and a deadline
// that expired (504).
var statusOfCode = map[string][]int{
	spq.CodeInvalidQuery: {http.StatusBadRequest},
	spq.CodeOverloaded:   {http.StatusTooManyRequests},
	spq.CodeCanceled:     {statusClientClosed, http.StatusGatewayTimeout},
	spq.CodeClosed:       {http.StatusServiceUnavailable},
}

// FuzzServeQuery POSTs arbitrary bytes to /query over a tiny engine. Every
// reply must carry a status of the error taxonomy (or 200) and a body that
// decodes as a QueryResponse; a 200 holds at most k results in canonical
// order (score descending, ties by lowest id), and a failure a code that
// matches its status. The seed corpus holds hostile requests — k = 2^40,
// a billion reducers, a 10,000-cell grid, radius 1e9, 1e20 and the
// largest float, unknown or unsupported scoring modes — so plain
// `go test` replays them.
func FuzzServeQuery(f *testing.F) {
	e := spq.NewEngine(spq.Config{Seed: 42, QueryCache: -1})
	if err := e.LoadSynthetic("uniform", 400); err != nil {
		f.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })
	h := New(e, Config{DefaultTimeout: 5 * time.Second}).Handler()

	kw := e.FrequentKeywords(1)[0]
	for _, body := range []string{
		`{"k":3,"radius":0.1,"keywords":["` + kw + `"]}`,
		`{"k":1099511627776,"radius":0.1,"keywords":["` + kw + `"]}`,
		`{"k":3,"radius":0.1,"keywords":["` + kw + `"],"reducers":1000000000}`,
		`{"k":3,"radius":0.1,"keywords":["` + kw + `"],"grid_n":10000}`,
		`{"k":3,"radius":1e9,"keywords":["` + kw + `"]}`,
		`{"k":3,"radius":1e20,"keywords":["` + kw + `"],"auto_plan":true}`,
		`{"k":3,"radius":1.7976931348623157e308,"keywords":["` + kw + `"],"grid_n":8}`,
		`{"k":3,"radius":0.1,"keywords":["` + kw + `"],"algorithm":"pspq","timeout_ms":1}`,
		`{"k":3,"radius":0.1,"keywords":[""]}`,
		`{"k":3,"radius":0.1,"keywords":["` + kw + `"],"mode":7}`,
		`{"k":3,"radius":0.1,"keywords":["` + kw + `"],"mode":2}`,
		`{"k":`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		var resp spq.QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("status %d, body %q does not decode: %v", w.Code, w.Body.Bytes(), err)
		}
		if w.Code != http.StatusOK {
			want, ok := statusOfCode[resp.Code]
			if !ok {
				t.Fatalf("status %d with code %q (%s), not in the taxonomy", w.Code, resp.Code, resp.Error)
			}
			for _, status := range want {
				if status == w.Code {
					return
				}
			}
			t.Fatalf("status %d with code %q (%s), want one of %v", w.Code, resp.Code, resp.Error, want)
		}
		if resp.Code != "" {
			t.Fatalf("status 200 with code %q", resp.Code)
		}
		// A 200 means the handler decoded the body with a json.Decoder,
		// which stops after the first value; decode it the same way.
		var req spq.QueryRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("status 200 for a body that does not decode: %v", err)
		}
		if len(resp.Results) > req.K {
			t.Fatalf("%d results for k = %d", len(resp.Results), req.K)
		}
		for i := 1; i < len(resp.Results); i++ {
			a, b := resp.Results[i-1], resp.Results[i]
			if a.Score < b.Score || (a.Score == b.Score && a.ID >= b.ID) {
				t.Fatalf("results %d and %d out of canonical order: %+v, %+v", i-1, i, a, b)
			}
		}
	})
}
