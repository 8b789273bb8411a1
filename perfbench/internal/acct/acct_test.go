package acct

import (
	"reflect"
	"testing"

	"rdfshapes/perfbench/internal/nt"
	"rdfshapes/perfbench/internal/ref"
)

// The body the server sends today for a one-line "PREFIX … ASK { … }":
// the query is run as a SELECT and answered with bindings.
const selectBodyForAsk = `{"head":{"vars":null},"results":{"bindings":[{}]}}`

func TestSelectBodyAnsweringAskIsFailed(t *testing.T) {
	o, err := Ask(200, []byte(selectBodyForAsk), true)
	if o != Failed || err == nil {
		t.Fatalf("Ask(bindings body) = %v, %v; want Failed with a reason", o, err)
	}
	var tl Tally
	tl.Add(OK, 2.5, "a")
	tl.Add(o, 0.4, "b")
	tl.Add(OK, 3.5, "c")
	if tl.Attempted != 3 || tl.Failed != 1 || len(tl.Wrong) != 0 {
		t.Fatalf("tally = %+v; want 3 attempted, 1 failed, none wrong", tl)
	}
	if want := []float64{2.5, 3.5}; !reflect.DeepEqual(tl.Latencies, want) {
		t.Fatalf("latencies = %v, want %v: a failed operation stays out", tl.Latencies, want)
	}
}

func TestAskOutcomes(t *testing.T) {
	for _, c := range []struct {
		status int
		body   string
		want   bool
		out    Outcome
	}{
		{200, `{"head":{"vars":null},"boolean":true}`, true, OK},
		{200, `{"head":{"vars":null},"boolean":false}`, false, OK},
		{200, `{"head":{"vars":null},"boolean":false}`, true, Wrong},
		{200, `{"head":{}}`, true, Wrong},
		{200, `not json`, true, Wrong},
		{503, `server at capacity`, true, Failed},
	} {
		if got, _ := Ask(c.status, []byte(c.body), c.want); got != c.out {
			t.Errorf("Ask(%d, %s, %v) = %v, want %v", c.status, c.body, c.want, got, c.out)
		}
	}
}

func TestWrongAnswersAreNotFailures(t *testing.T) {
	var tl Tally
	tl.Add(Wrong, 1, "rows differ")
	if tl.Failed != 0 || len(tl.Wrong) != 1 || len(tl.Latencies) != 0 {
		t.Fatalf("tally = %+v", tl)
	}
}

func TestRowsDecode(t *testing.T) {
	body := `{"head":{"vars":["x","n"]},"results":{"bindings":[
		{"x":{"type":"uri","value":"http://e/b"},"n":{"type":"literal","value":"B","xml:lang":"en"}},
		{"x":{"type":"uri","value":"http://e/a"},"n":{"type":"literal","value":"A"}}]}}`
	got, err := Rows([]byte(body), []string{"x", "n"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		ref.RowKey([]string{nt.IRI("http://e/a"), nt.Literal("A", "", "")}),
		ref.RowKey([]string{nt.IRI("http://e/b"), nt.Literal("B", "en", "")}),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %q, want %q", got, want)
	}
	if _, err := Rows([]byte(`{"head":{"vars":["x"]},"results":{"bindings":[]},"truncated":true}`), []string{"x"}); err == nil {
		t.Fatal("a truncated result must not verify")
	}
}

func TestCountDecode(t *testing.T) {
	body := `{"head":{"vars":["n"]},"results":{"bindings":[{"n":{"type":"literal","value":"18206","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}]}}`
	if n, err := CountValue([]byte(body)); err != nil || n != 18206 {
		t.Fatalf("CountValue = %d, %v", n, err)
	}
}
