// Package ref is the benchmark's reference evaluator: basic graph
// patterns over its own copy of the triples, evaluated with hash joins.
// It shares no code with the system under test, so a fault in the
// system's planner, join operators or result path cannot hide in both.
package ref

import (
	"fmt"
	"sort"
	"strings"

	"rdfshapes/perfbench/internal/nt"
)

// Term is a pattern position: a variable name, or a constant term key.
type Term struct {
	Var   string
	Const string
}

// Pattern is one triple pattern.
type Pattern struct{ S, P, O Term }

// Graph holds interned triples with per-predicate indexes.
type Graph struct {
	ids   map[string]uint32
	terms []string
	byP   map[uint32]*predIndex
	all   [][3]uint32
}

type predIndex struct {
	pairs [][2]uint32
	byS   map[uint32][]uint32
	byO   map[uint32][]uint32
}

// New interns triples into a graph. Duplicate triples are kept once, as
// RDF graphs are sets.
func New(triples []nt.Triple) *Graph {
	g := &Graph{ids: map[string]uint32{}, byP: map[uint32]*predIndex{}}
	seen := make(map[[3]uint32]bool, len(triples))
	for _, t := range triples {
		k := [3]uint32{g.intern(t.S), g.intern(t.P), g.intern(t.O)}
		if seen[k] {
			continue
		}
		seen[k] = true
		g.all = append(g.all, k)
		pi := g.byP[k[1]]
		if pi == nil {
			pi = &predIndex{byS: map[uint32][]uint32{}, byO: map[uint32][]uint32{}}
			g.byP[k[1]] = pi
		}
		pi.pairs = append(pi.pairs, [2]uint32{k[0], k[2]})
		pi.byS[k[0]] = append(pi.byS[k[0]], k[2])
		pi.byO[k[2]] = append(pi.byO[k[2]], k[0])
	}
	return g
}

func (g *Graph) intern(key string) uint32 {
	if id, ok := g.ids[key]; ok {
		return id
	}
	id := uint32(len(g.terms))
	g.ids[key] = id
	g.terms = append(g.terms, key)
	return id
}

// Len returns the number of distinct triples.
func (g *Graph) Len() int { return len(g.all) }

// relation is a set of bindings over named columns.
type relation struct {
	vars []string
	rows [][]uint32
}

func (r *relation) col(v string) int {
	for i, x := range r.vars {
		if x == v {
			return i
		}
	}
	return -1
}

// match returns the bindings of one pattern. A variable repeated inside
// the pattern binds one column whose positions must hold the same term.
func (g *Graph) match(p Pattern) *relation {
	pos := [3]Term{p.S, p.P, p.O}
	var fixed [3]uint32
	var bound [3]bool
	rel := &relation{}
	for i, t := range pos {
		if t.Var == "" {
			id, ok := g.ids[t.Const]
			if !ok {
				return rel // a constant absent from the data matches nothing
			}
			fixed[i], bound[i] = id, true
		}
	}
	colOf := [3]int{-1, -1, -1}
	for i, t := range pos {
		if t.Var == "" {
			continue
		}
		for j := 0; j < i; j++ {
			if pos[j].Var == t.Var {
				colOf[i] = colOf[j]
			}
		}
		if colOf[i] < 0 {
			colOf[i] = len(rel.vars)
			rel.vars = append(rel.vars, t.Var)
		}
	}
	emit := func(s, p, o uint32) {
		tr := [3]uint32{s, p, o}
		row := make([]uint32, len(rel.vars))
		set := make([]bool, len(rel.vars))
		for i := range tr {
			if bound[i] {
				if tr[i] != fixed[i] {
					return
				}
				continue
			}
			c := colOf[i]
			if set[c] && row[c] != tr[i] {
				return
			}
			row[c], set[c] = tr[i], true
		}
		rel.rows = append(rel.rows, row)
	}
	if !bound[1] {
		for _, t := range g.all {
			emit(t[0], t[1], t[2])
		}
		return rel
	}
	pi := g.byP[fixed[1]]
	if pi == nil {
		return rel
	}
	switch {
	case bound[0]:
		for _, o := range pi.byS[fixed[0]] {
			emit(fixed[0], fixed[1], o)
		}
	case bound[2]:
		for _, s := range pi.byO[fixed[2]] {
			emit(s, fixed[1], fixed[2])
		}
	default:
		for _, so := range pi.pairs {
			emit(so[0], fixed[1], so[1])
		}
	}
	return rel
}

// join hash-joins two relations on their shared columns; with none
// shared it is the Cartesian product.
func join(a, b *relation) *relation {
	if len(b.rows) > len(a.rows) {
		a, b = b, a // build the hash table on the smaller side
	}
	var shared []string
	for _, v := range b.vars {
		if a.col(v) >= 0 {
			shared = append(shared, v)
		}
	}
	out := &relation{vars: append([]string(nil), a.vars...)}
	var extra []int // columns of b not in a
	for i, v := range b.vars {
		if a.col(v) < 0 {
			out.vars = append(out.vars, v)
			extra = append(extra, i)
		}
	}
	key := func(r *relation, row []uint32) string {
		var sb strings.Builder
		for _, v := range shared {
			id := row[r.col(v)]
			sb.WriteByte(byte(id))
			sb.WriteByte(byte(id >> 8))
			sb.WriteByte(byte(id >> 16))
			sb.WriteByte(byte(id >> 24))
		}
		return sb.String()
	}
	table := map[string][][]uint32{}
	for _, row := range b.rows {
		k := key(b, row)
		table[k] = append(table[k], row)
	}
	for _, row := range a.rows {
		for _, m := range table[key(a, row)] {
			o := make([]uint32, 0, len(out.vars))
			o = append(o, row...)
			for _, i := range extra {
				o = append(o, m[i])
			}
			out.rows = append(out.rows, o)
		}
	}
	return out
}

// eval joins all patterns, smallest relation first, then always the
// smallest remaining relation that shares a variable with the result so
// far (a Cartesian product only when none does).
func (g *Graph) eval(bgp []Pattern) *relation {
	if len(bgp) == 0 {
		return &relation{rows: [][]uint32{{}}}
	}
	rels := make([]*relation, len(bgp))
	for i, p := range bgp {
		rels[i] = g.match(p)
	}
	sort.SliceStable(rels, func(i, j int) bool { return len(rels[i].rows) < len(rels[j].rows) })
	cur := rels[0]
	rest := rels[1:]
	for len(rest) > 0 {
		pick := 0
		for i, r := range rest {
			if sharesVar(cur, r) {
				pick = i
				break
			}
		}
		cur = join(cur, rest[pick])
		rest = append(rest[:pick], rest[pick+1:]...)
		if len(cur.rows) == 0 {
			break
		}
	}
	return cur
}

func sharesVar(a, b *relation) bool {
	for _, v := range b.vars {
		if a.col(v) >= 0 {
			return true
		}
	}
	return false
}

// Rows evaluates the BGP and returns its solutions projected onto proj,
// one canonical row key per solution (terms joined by NUL), sorted. The
// result is a multiset: duplicates stay.
func (g *Graph) Rows(bgp []Pattern, proj []string) ([]string, error) {
	rel := g.eval(bgp)
	cols := make([]int, len(proj))
	for i, v := range proj {
		if cols[i] = rel.col(v); cols[i] < 0 && len(rel.rows) > 0 {
			return nil, fmt.Errorf("ref: projected variable ?%s is not in the pattern", v)
		}
	}
	out := make([]string, len(rel.rows))
	parts := make([]string, len(proj))
	for i, row := range rel.rows {
		for j, c := range cols {
			parts[j] = g.terms[row[c]]
		}
		out[i] = RowKey(parts)
	}
	sort.Strings(out)
	return out, nil
}

// Count returns the number of solutions of the BGP.
func (g *Graph) Count(bgp []Pattern) int64 { return int64(len(g.eval(bgp).rows)) }

// RowKey joins one row's term keys; an unbound variable is the empty key.
func RowKey(terms []string) string { return strings.Join(terms, "\x00") }
