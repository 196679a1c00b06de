package spq

import (
	"errors"
	"fmt"
	"strings"
)

// Canonical JSON wire forms of a query submission and its outcome, shared
// by the serving daemon (cmd/spqd, package serve) and its HTTP/JSON
// clients. Keeping them in the root package means daemon and client
// cannot drift: both marshal exactly these structs.

// QueryRequest is one query submission. The embedded Query supplies the
// k/radius/keywords/mode fields; the rest select execution options
// (mirroring the QueryOption constructors) and the requesting tenant.
type QueryRequest struct {
	Query
	// Algorithm selects the processing algorithm by name ("pSPQ",
	// "eSPQlen", "eSPQsco", case-insensitive); empty selects the default.
	Algorithm string `json:"algorithm,omitempty"`
	// AutoPlan is ignored: every query is planned.
	//
	// Deprecated: leave it out; the query runs the same either way.
	AutoPlan bool `json:"auto_plan,omitempty"`
	// Cache and Delta, when present, control cache participation and delta
	// visibility (WithCache / WithDelta); absent means the defaults.
	Cache *bool `json:"cache,omitempty"`
	Delta *bool `json:"delta,omitempty"`
	// GridN and Reducers override the query-time grid and reduce-task
	// count (WithGrid / WithReducers); zero keeps the default. A grid
	// beyond 1024 cells a side or more than 4096 reducers is rejected as
	// invalid.
	GridN    int `json:"grid_n,omitempty"`
	Reducers int `json:"reducers,omitempty"`
	// Tenant names the requesting tenant for per-tenant quotas; empty
	// falls under the daemon's default quota (or the X-SPQ-Tenant header).
	Tenant string `json:"tenant,omitempty"`
	// TimeoutMillis bounds this query's total time (queueing included)
	// when positive; the daemon's default deadline applies otherwise.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// Options resolves the request's execution options into QueryOptions for
// QueryReportContext. An unknown algorithm name is rejected with
// ErrInvalidQuery (the query itself is validated by the engine).
func (r *QueryRequest) Options() ([]QueryOption, error) {
	var opts []QueryOption
	if r.Algorithm != "" {
		alg, err := ParseAlgorithm(r.Algorithm)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithAlgorithm(alg))
	}
	if r.Cache != nil {
		opts = append(opts, WithCache(*r.Cache))
	}
	if r.Delta != nil {
		opts = append(opts, WithDelta(*r.Delta))
	}
	if r.GridN != 0 {
		opts = append(opts, WithGrid(r.GridN))
	}
	if r.Reducers != 0 {
		opts = append(opts, WithReducers(r.Reducers))
	}
	return opts, nil
}

// ParseAlgorithm maps a wire algorithm name onto the Algorithm constant,
// accepting the canonical names ("pSPQ", "eSPQlen", "eSPQsco") in any
// case. Unknown names wrap ErrInvalidQuery.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch strings.ToLower(name) {
	case "pspq":
		return PSPQ, nil
	case "espqlen":
		return ESPQLen, nil
	case "espqsco":
		return ESPQSco, nil
	default:
		return 0, fmt.Errorf("%w: unknown algorithm %q", ErrInvalidQuery, name)
	}
}

// QueryResponse is the outcome of one query: the ranked results plus the
// execution facts a serving client needs (which generation answered, how
// long the job ran, the effective options). Failed queries carry Error
// and Code instead of Results.
type QueryResponse struct {
	Results []Result `json:"results"`
	// Generation is the storage generation the query was served from.
	Generation uint64 `json:"generation"`
	// TotalMillis is the end-to-end job duration; 0 for cache hits and
	// planner-proven empty results.
	TotalMillis float64 `json:"total_millis"`
	// Options echoes the effective execution settings (Report.Options).
	Options *EffectiveOptions `json:"options,omitempty"`
	// Counters are the job counters; populated only when the client asked
	// for them (the daemon's ?counters=1).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Error and Code report a failure: Error is the message, Code the
	// taxonomy slug from ErrorCode.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// Error-code slugs of the wire protocol, one per taxonomy sentinel.
const (
	CodeInvalidQuery = "invalid_query"
	CodeOverloaded   = "overloaded"
	CodeCanceled     = "canceled"
	CodeClosed       = "closed"
	CodeUnavailable  = "data_unavailable"
	CodeInternal     = "internal"
)

// ErrorCode maps a query error onto its wire slug via the taxonomy of
// errors.go. Unrecognized errors are "internal".
func ErrorCode(err error) string {
	switch {
	case errors.Is(err, ErrInvalidQuery):
		return CodeInvalidQuery
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrCanceled):
		return CodeCanceled
	case errors.Is(err, ErrClosed):
		return CodeClosed
	case errors.Is(err, ErrDataUnavailable):
		return CodeUnavailable
	default:
		return CodeInternal
	}
}
