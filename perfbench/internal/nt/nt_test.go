package nt

import (
	"strings"
	"testing"
)

func TestFileTermsMatchJSONTerms(t *testing.T) {
	for _, c := range []struct {
		line string
		json JSONTerm
	}{
		{`<http://e/s> <http://e/p> <http://e/o> .`, JSONTerm{Type: "uri", Value: "http://e/o"}},
		{`<http://e/s> <http://e/p> _:b1 .`, JSONTerm{Type: "bnode", Value: "b1"}},
		{`<http://e/s> <http://e/p> "a \"q\"\\ b\n" .`, JSONTerm{Type: "literal", Value: "a \"q\"\\ b\n"}},
		{`<http://e/s> <http://e/p> "chat"@fr .`, JSONTerm{Type: "literal", Value: "chat", Lang: "fr"}},
		{`<http://e/s> <http://e/p> "7"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
			JSONTerm{Type: "literal", Value: "7", Datatype: "http://www.w3.org/2001/XMLSchema#integer"}},
		{`<http://e/s> <http://e/p> "x"^^<http://www.w3.org/2001/XMLSchema#string> .`, JSONTerm{Type: "literal", Value: "x"}},
	} {
		tr, err := ParseLine(c.line)
		if err != nil {
			t.Fatalf("%s: %v", c.line, err)
		}
		k, err := c.json.Key()
		if err != nil || k != tr.O {
			t.Errorf("%s: file key %q, JSON key %q (%v)", c.line, tr.O, k, err)
		}
	}
}

func TestParseLineRejects(t *testing.T) {
	for _, bad := range []string{
		`<http://e/s> <http://e/p> <http://e/o>`,
		`<http://e/s> "p" <http://e/o> .`,
		`<http://e/s> <http://e/p> "open .`,
		`<http://e/s <http://e/p> <http://e/o> .`,
	} {
		if _, err := ParseLine(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestFingerprintIgnoresOrder(t *testing.T) {
	a, err := parse(strings.NewReader("<http://e/a> <http://e/p> <http://e/b> .\n# c\n<http://e/b> <http://e/p> \"x\" .\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parse(strings.NewReader("<http://e/b> <http://e/p> \"x\" .\n\n<http://e/a> <http://e/p> <http://e/b> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() || !strings.HasPrefix(a.Fingerprint(), "triples=2 ") {
		t.Fatalf("fingerprints %q and %q", a.Fingerprint(), b.Fingerprint())
	}
	c, _ := parse(strings.NewReader("<http://e/b> <http://e/p> \"y\" .\n<http://e/a> <http://e/p> <http://e/b> .\n"))
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("a changed literal kept the fingerprint")
	}
}
