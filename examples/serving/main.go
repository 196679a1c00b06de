// Serving: the network daemon walkthrough, in-process.
//
// The example assembles exactly what cmd/spqd assembles — an engine behind
// serve.New with bounded admission and a per-tenant quota — and then plays
// a client session against it over real HTTP: a plain query, a query with
// execution options, the introspected effective options, a tenant hitting
// its quota (429 with code "overloaded"), the shape of an invalid query
// (400 with code "invalid_query"), the /stats snapshot, and a graceful
// drain. Everything a deployment does, without leaving one process.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"spq"
	"spq/serve"
)

func main() {
	// 1. An engine with a sealed synthetic dataset, as spqd boots it.
	eng := spq.NewEngine(spq.Config{Seed: 42})
	if err := eng.LoadSynthetic("uniform", 4000); err != nil {
		log.Fatal(err)
	}
	if err := eng.Seal(); err != nil {
		log.Fatal(err)
	}

	// 2. The serving layer: at most 4 queries executing, 8 more queued,
	// and each tenant limited to 2 queries of burst (so the quota is easy
	// to demonstrate).
	srv := serve.New(eng, serve.Config{
		MaxInflight: 4,
		MaxQueue:    8,
		Quota:       serve.QuotaConfig{RatePerSec: 0.001, Burst: 2},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("daemon serving at %s\n\n", ts.URL)

	kws := eng.FrequentKeywords(4)
	post := func(req spq.QueryRequest, tenant string) (*spq.QueryResponse, int) {
		body, err := json.Marshal(req)
		if err != nil {
			log.Fatal(err)
		}
		hreq, err := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		hreq.Header.Set("X-SPQ-Tenant", tenant)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out spq.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		return &out, resp.StatusCode
	}

	// 3. A plain query: top-5 objects near the two most frequent keywords.
	q := spq.Query{K: 5, Radius: 0.05, Keywords: kws[:2]}
	resp, status := post(spq.QueryRequest{Query: q}, "demo")
	fmt.Printf("POST /query -> %d, %d results from generation %d in %.1fms\n",
		status, len(resp.Results), resp.Generation, resp.TotalMillis)
	for i, r := range resp.Results {
		fmt.Printf("  #%d object %d score %.3f\n", i+1, r.ID, r.Score)
	}

	// 4. Execution options travel in the same JSON body, and the response
	// echoes what actually applied (Report.Options over the wire).
	resp, status = post(spq.QueryRequest{
		Query:     q,
		Algorithm: "eSPQlen",
		GridN:     8,
	}, "demo")
	fmt.Printf("\nwith algorithm+grid -> %d, effective options %+v\n", status, *resp.Options)

	// 5. The "demo" tenant has burst 2 and has spent it: the third query
	// is shed with 429/overloaded — without occupying any admission slot.
	resp, status = post(spq.QueryRequest{Query: q}, "demo")
	fmt.Printf("\nover quota        -> %d code=%q (%s)\n", status, resp.Code, resp.Error)

	// 6. Another tenant is unaffected.
	_, status = post(spq.QueryRequest{Query: q}, "other")
	fmt.Printf("other tenant      -> %d\n", status)

	// 7. Invalid queries are named precisely: taxonomy code plus field.
	resp, status = post(spq.QueryRequest{Query: spq.Query{K: 0, Radius: 0.05, Keywords: kws[:1]}}, "other")
	fmt.Printf("invalid query     -> %d code=%q (%s)\n", status, resp.Code, resp.Error)

	// 8. /stats aggregates outcomes, latency quantiles and engine counters.
	st := srv.Stats()
	fmt.Printf("\n/stats: served=%d shed=%d invalid=%d p99=%.2fms generation=%d\n",
		st.Served, st.Shed, st.Invalid, st.P99Millis, st.Generation)

	// 9. Graceful drain: in-flight queries finish, new ones get 503, and
	// only then is it safe to close the engine.
	if err := srv.Drain(context.Background()); err != nil {
		log.Fatal(err)
	}
	_, status = post(spq.QueryRequest{Query: q}, "other")
	fmt.Printf("after drain       -> %d (daemon refusing, engine still intact)\n", status)
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained and closed")
}
