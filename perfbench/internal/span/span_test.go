package span

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},   // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // runs past its parent: clipped
		{ID: 5, Parent: 2, Name: "a1", Start: 12, End: 18},  // grandchild: only a's business
		{ID: 6, Parent: 1, Name: "d", Start: 150, End: 160}, // wholly outside: ignored
	}
	self := SelfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeAdjacentAndNestedChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "x", Start: 0, End: 5},
		{ID: 3, Parent: 1, Name: "x", Start: 5, End: 10},
	}
	if s := SelfTimes(spans)[1]; s != 0 {
		t.Fatalf("fully covered parent has self %d, want 0", s)
	}
	agg := ByPath(spans)
	if a := agg["op/x"]; a.Count != 2 || a.Total != 10 || a.Self != 10 {
		t.Fatalf("ByPath[op/x] = %+v", a)
	}
	if a := agg["op"]; a.Count != 1 || a.Total != 10 || a.Self != 0 {
		t.Fatalf("ByPath[op] = %+v", a)
	}
}

func TestByPathSeparatesCallers(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "setup", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "stats", Start: 2, End: 6},
		{ID: 3, Name: "update", Start: 20, End: 40},
		{ID: 4, Parent: 3, Name: "reannotate", Start: 21, End: 39},
		{ID: 5, Parent: 4, Name: "stats", Start: 22, End: 30},
	}
	agg := ByPath(spans)
	for path, want := range map[string]Agg{
		"setup":                   {Count: 1, Total: 10, Self: 6},
		"setup/stats":             {Count: 1, Total: 4, Self: 4},
		"update":                  {Count: 1, Total: 20, Self: 2},
		"update/reannotate":       {Count: 1, Total: 18, Self: 10},
		"update/reannotate/stats": {Count: 1, Total: 8, Self: 8},
	} {
		if agg[path] != want {
			t.Errorf("ByPath[%s] = %+v, want %+v", path, agg[path], want)
		}
	}
}

func TestRecorderNestsAndWrites(t *testing.T) {
	r := New()
	r.SetOp(7)
	r.Do("outer", func() {
		r.Do("inner", func() {})
		r.Do("inner", func() {})
	})
	sp := r.Spans()
	if len(sp) != 3 || sp[0].Name != "outer" || sp[1].Parent != sp[0].ID || sp[2].Parent != sp[0].ID {
		t.Fatalf("spans = %+v", sp)
	}
	for _, s := range sp {
		if s.Op != 7 || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != 3 {
		t.Fatalf("wrote %d lines, want 3", n)
	}
	var nilRec *Recorder
	ran := false
	nilRec.Do("x", func() { ran = true })
	if !ran || nilRec.Spans() != nil {
		t.Fatal("nil recorder must run fn and record nothing")
	}
}
