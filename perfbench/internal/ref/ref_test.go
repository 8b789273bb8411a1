package ref

import (
	"reflect"
	"strings"
	"testing"

	"rdfshapes/perfbench/internal/nt"
)

const graphText = `
<http://e/alice> <http://e/knows> <http://e/bob> .
<http://e/alice> <http://e/knows> <http://e/carol> .
<http://e/bob> <http://e/knows> <http://e/carol> .
<http://e/carol> <http://e/knows> <http://e/carol> .
<http://e/alice> <http://e/name> "Alice" .
<http://e/bob> <http://e/name> "Bob"@en .
<http://e/carol> <http://e/name> "Carol"^^<http://www.w3.org/2001/XMLSchema#string> .
<http://e/alice> <http://e/type> <http://e/Person> .
<http://e/bob> <http://e/type> <http://e/Person> .
<http://e/alice> <http://e/knows> <http://e/bob> .
`

func testGraph(t *testing.T) *Graph {
	t.Helper()
	f, err := parse(graphText)
	if err != nil {
		t.Fatal(err)
	}
	return New(f)
}

func parse(text string) ([]nt.Triple, error) {
	var out []nt.Triple
	for _, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		tr, err := nt.ParseLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}

func v(name string) Term      { return Term{Var: name} }
func c(iri string) Term       { return Term{Const: nt.IRI("http://e/" + iri)} }
func row(ts ...string) string { return RowKey(ts) }

func TestDuplicateTriplesCountOnce(t *testing.T) {
	if n := testGraph(t).Len(); n != 9 {
		t.Fatalf("Len = %d, want 9 (one duplicate line)", n)
	}
}

func TestChainJoin(t *testing.T) {
	g := testGraph(t)
	// Who is known by someone that alice knows?
	got, err := g.Rows([]Pattern{
		{c("alice"), c("knows"), v("y")},
		{v("y"), c("knows"), v("z")},
	}, []string{"y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		row(nt.IRI("http://e/bob"), nt.IRI("http://e/carol")),
		row(nt.IRI("http://e/carol"), nt.IRI("http://e/carol")),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %q, want %q", got, want)
	}
}

func TestRepeatedVariableInOnePattern(t *testing.T) {
	g := testGraph(t)
	got, err := g.Rows([]Pattern{{v("x"), c("knows"), v("x")}}, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{row(nt.IRI("http://e/carol"))}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self-loops = %q, want %q", got, want)
	}
}

func TestRepeatedVariableAcrossPatterns(t *testing.T) {
	g := testGraph(t)
	// Paths x→y→z closed by x→z; ?x, ?y and ?z each join two patterns.
	n := g.Count([]Pattern{
		{v("x"), c("knows"), v("y")},
		{v("y"), c("knows"), v("z")},
		{v("x"), c("knows"), v("z")},
	})
	// alice-bob-carol, alice-carol-carol, bob-carol-carol, carol-carol-carol
	if n != 4 {
		t.Fatalf("triangle count = %d, want 4", n)
	}
}

func TestProjectionKeepsDuplicates(t *testing.T) {
	g := testGraph(t)
	got, err := g.Rows([]Pattern{
		{v("x"), c("type"), c("Person")},
		{v("x"), c("knows"), v("y")},
	}, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := nt.IRI("http://e/alice"), nt.IRI("http://e/bob")
	if want := []string{row(alice), row(alice), row(bob)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %q, want %q", got, want)
	}
}

func TestLiteralKeys(t *testing.T) {
	g := testGraph(t)
	got, err := g.Rows([]Pattern{{v("x"), c("name"), v("n")}}, []string{"n"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		row(nt.Literal("Alice", "", "")),
		row(nt.Literal("Carol", "", "")), // xsd:string is the plain literal
		row(nt.Literal("Bob", "en", "")),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %q, want %q", got, want)
	}
}

func TestEmptyAnswers(t *testing.T) {
	g := testGraph(t)
	for name, bgp := range map[string][]Pattern{
		"absent constant":  {{v("x"), c("knows"), c("nobody")}},
		"absent predicate": {{v("x"), c("likes"), v("y")}},
		"empty join": {
			{v("x"), c("type"), c("Person")},
			{v("x"), c("knows"), c("alice")},
		},
	} {
		got, err := g.Rows(bgp, []string{"x"})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 0 || g.Count(bgp) != 0 {
			t.Errorf("%s: got %q, want no rows", name, got)
		}
	}
}

func TestGroundPatternAndCartesianProduct(t *testing.T) {
	g := testGraph(t)
	if n := g.Count([]Pattern{{c("bob"), c("knows"), c("carol")}}); n != 1 {
		t.Fatalf("ground pattern present: count %d, want 1", n)
	}
	if n := g.Count([]Pattern{{c("carol"), c("knows"), c("bob")}}); n != 0 {
		t.Fatalf("ground pattern absent: count %d, want 0", n)
	}
	// 2 persons × 3 names, no shared variable.
	if n := g.Count([]Pattern{
		{v("x"), c("type"), c("Person")},
		{v("y"), c("name"), v("n")},
	}); n != 6 {
		t.Fatalf("Cartesian product count %d, want 6", n)
	}
}

func TestVariablePredicate(t *testing.T) {
	g := testGraph(t)
	if n := g.Count([]Pattern{{c("alice"), v("p"), v("o")}}); n != 4 {
		t.Fatalf("alice's triples: %d, want 4", n)
	}
}
