// Package nt reads the N-Triples files the benchmark generates and gives
// every RDF term one canonical key, so that terms parsed from the file and
// terms decoded from SPARQL JSON results compare as plain strings. It is
// written for the benchmark alone and shares no code with the system under
// test.
package nt

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// XSDString is the datatype SPARQL JSON results leave implicit.
const XSDString = "http://www.w3.org/2001/XMLSchema#string"

// Key forms. A key starts with its kind letter: I<iri>, B<label>, or
// L<lang>\x01<datatype>\x01<lexical form>.
func IRI(iri string) string     { return "I" + iri }
func Blank(label string) string { return "B" + label }

// Literal returns the key of a literal; an xsd:string datatype is dropped
// because it is the same term as the plain literal.
func Literal(lex, lang, datatype string) string {
	if datatype == XSDString {
		datatype = ""
	}
	return "L" + lang + "\x01" + datatype + "\x01" + lex
}

// Triple is one parsed line, each position a term key.
type Triple struct{ S, P, O string }

// ParseLine parses one N-Triples statement.
func ParseLine(line string) (Triple, error) {
	var t Triple
	var err error
	rest := line
	if t.S, rest, err = term(rest); err != nil {
		return t, err
	}
	if t.P, rest, err = term(rest); err != nil {
		return t, err
	}
	if t.P[0] != 'I' {
		return t, fmt.Errorf("predicate is not an IRI in %q", line)
	}
	if t.O, rest, err = term(rest); err != nil {
		return t, err
	}
	if strings.TrimSpace(rest) != "." {
		return t, fmt.Errorf("missing final '.' in %q", line)
	}
	return t, nil
}

func term(s string) (key, rest string, err error) {
	s = strings.TrimLeft(s, " \t")
	if s == "" {
		return "", "", fmt.Errorf("unexpected end of statement")
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated IRI in %q", s)
		}
		return IRI(s[1:end]), s[end+1:], nil
	case '_':
		if !strings.HasPrefix(s, "_:") {
			return "", "", fmt.Errorf("bad blank node in %q", s)
		}
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			end = len(s)
		}
		return Blank(s[2:end]), s[end:], nil
	case '"':
		var lex strings.Builder
		i := 1
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] != '\\' {
				lex.WriteByte(s[i])
				continue
			}
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in %q", s)
			}
			i++
			switch s[i] {
			case 'n':
				lex.WriteByte('\n')
			case 'r':
				lex.WriteByte('\r')
			case 't':
				lex.WriteByte('\t')
			case '"', '\\':
				lex.WriteByte(s[i])
			default:
				return "", "", fmt.Errorf("unsupported escape \\%c in %q", s[i], s)
			}
		}
		if i >= len(s) {
			return "", "", fmt.Errorf("unterminated literal in %q", s)
		}
		rest = s[i+1:]
		lang, dt := "", ""
		switch {
		case strings.HasPrefix(rest, "@"):
			end := strings.IndexAny(rest, " \t")
			if end < 0 {
				end = len(rest)
			}
			lang, rest = rest[1:end], rest[end:]
		case strings.HasPrefix(rest, "^^<"):
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				return "", "", fmt.Errorf("unterminated datatype in %q", s)
			}
			dt, rest = rest[3:end], rest[end+1:]
		}
		return Literal(lex.String(), lang, dt), rest, nil
	}
	return "", "", fmt.Errorf("unexpected %q", s)
}

// File is a generated dataset read into memory.
type File struct {
	Lines   []string // statement lines, in file order
	Triples []Triple
}

// Read reads and parses an N-Triples file.
func Read(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return parse(fh)
}

func parse(r io.Reader) (*File, error) {
	f := &File{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		t, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		f.Lines = append(f.Lines, line)
		f.Triples = append(f.Triples, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// Fingerprint identifies a dataset independently of line order: its
// statement count and the SHA-256 of its statements sorted bytewise, one
// per line.
func (f *File) Fingerprint() string {
	sorted := append([]string(nil), f.Lines...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, l := range sorted {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("triples=%d sha256=%s", len(sorted), hex.EncodeToString(h.Sum(nil)))
}

// InstancesOf returns the IRIs typed with class, sorted.
func (f *File) InstancesOf(class string) []string {
	typ, cls := IRI(RDFType), IRI(class)
	var out []string
	for _, t := range f.Triples {
		if t.P == typ && t.O == cls && t.S[0] == 'I' {
			out = append(out, t.S[1:])
		}
	}
	sort.Strings(out)
	return out
}

// RDFType is the rdf:type predicate.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// JSONTerm is one term of a SPARQL 1.1 JSON result binding.
type JSONTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang"`
	Datatype string `json:"datatype"`
}

// Key returns the canonical key of a JSON result term.
func (j JSONTerm) Key() (string, error) {
	switch j.Type {
	case "uri":
		return IRI(j.Value), nil
	case "bnode":
		return Blank(j.Value), nil
	case "literal", "typed-literal":
		return Literal(j.Value, j.Lang, j.Datatype), nil
	}
	return "", fmt.Errorf("unknown term type %q", j.Type)
}
