// Package acct decides what each response counts as — a success, a failed
// operation, or a wrong answer — and tallies operations and latencies so
// that failed operations never enter a latency percentile.
package acct

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"rdfshapes/perfbench/internal/nt"
	"rdfshapes/perfbench/internal/ref"
)

// Outcome is what one operation counts as.
type Outcome int

const (
	// OK: the answer is right.
	OK Outcome = iota
	// Failed: the server did not answer the operation as asked (an error
	// status, or the wrong result form). Counted in failed, kept out of
	// latency.
	Failed
	// Wrong: a well-formed answer with the wrong content. Any wrong answer
	// makes the run incorrect.
	Wrong
)

// results is the SPARQL 1.1 JSON results document.
type results struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results *struct {
		Bindings []map[string]nt.JSONTerm `json:"bindings"`
	} `json:"results"`
	Boolean   *bool `json:"boolean"`
	Truncated bool  `json:"truncated"`
}

func decode(body []byte) (*results, error) {
	var r results
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding results: %w", err)
	}
	if r.Truncated {
		return nil, fmt.Errorf("result is marked truncated")
	}
	return &r, nil
}

// Rows decodes a SELECT response into canonical row keys over vars,
// sorted, comparable with ref.Graph.Rows.
func Rows(body []byte, vars []string) ([]string, error) {
	r, err := decode(body)
	if err != nil {
		return nil, err
	}
	if r.Results == nil {
		return nil, fmt.Errorf("no bindings in a SELECT response")
	}
	out := make([]string, len(r.Results.Bindings))
	parts := make([]string, len(vars))
	for i, b := range r.Results.Bindings {
		for j, v := range vars {
			parts[j] = ""
			if t, ok := b[v]; ok {
				if parts[j], err = t.Key(); err != nil {
					return nil, err
				}
			}
		}
		if len(b) > len(vars) {
			return nil, fmt.Errorf("row binds %d variables, the query has %d", len(b), len(vars))
		}
		out[i] = ref.RowKey(parts)
	}
	sort.Strings(out)
	return out, nil
}

// CountValue decodes a SELECT (COUNT(*) AS ?n) response.
func CountValue(body []byte) (int64, error) {
	r, err := decode(body)
	if err != nil {
		return 0, err
	}
	if r.Results == nil || len(r.Results.Bindings) != 1 {
		return 0, fmt.Errorf("want exactly one count row")
	}
	t, ok := r.Results.Bindings[0]["n"]
	if !ok || t.Type != "literal" {
		return 0, fmt.Errorf("count row has no literal ?n")
	}
	return strconv.ParseInt(t.Value, 10, 64)
}

// Ask classifies an ASK response against the reference answer. A 200
// carrying a bindings document instead of a boolean is a failed
// operation: the server ran the query as a SELECT.
func Ask(status int, body []byte, want bool) (Outcome, error) {
	if status != http.StatusOK {
		return Failed, fmt.Errorf("status %d", status)
	}
	r, err := decode(body)
	if err != nil {
		return Wrong, err
	}
	switch {
	case r.Boolean != nil && *r.Boolean == want:
		return OK, nil
	case r.Boolean != nil:
		return Wrong, fmt.Errorf("ASK answered %v, reference says %v", *r.Boolean, want)
	case r.Results != nil:
		return Failed, fmt.Errorf("ASK answered with a bindings document")
	}
	return Wrong, fmt.Errorf("ASK response has neither boolean nor bindings")
}

// Tally counts operations and the latencies of the successful ones.
type Tally struct {
	Attempted int
	Failed    int
	// Latencies holds milliseconds of successful operations only.
	Latencies []float64
	// Wrong describes each wrong answer; any makes the run incorrect.
	Wrong []string
}

// Add records one operation.
func (t *Tally) Add(o Outcome, ms float64, what string) {
	t.Attempted++
	switch o {
	case OK:
		t.Latencies = append(t.Latencies, ms)
	case Failed:
		t.Failed++
	case Wrong:
		t.Wrong = append(t.Wrong, what)
	}
}
