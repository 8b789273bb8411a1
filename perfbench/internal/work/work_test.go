package work

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func params() Params {
	var p Params
	for u := 0; u < 8; u++ {
		p.Universities = append(p.Universities, fmt.Sprintf("http://e/University%d", u))
		for d := 0; d < 14; d++ {
			p.Departments = append(p.Departments, fmt.Sprintf("http://e/U%d/Dept%d", u, d))
		}
	}
	return p
}

func ids(qs []*Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.ID
	}
	return out
}

func TestPassesAreSeededAndWhole(t *testing.T) {
	for name, want := range map[string]int{"lubm_export": 7 * 8, "lubm_count": 9, "lubm_churn": 2820} {
		a, err := Build(name, 1, params())
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Build(name, 1, params())
		c, _ := Build(name, 2, params())
		if len(a.Pass) != want || len(c.Pass) != want {
			t.Errorf("%s: pass of %d and %d operations, want %d for every seed", name, len(a.Pass), len(c.Pass), want)
		}
		if !reflect.DeepEqual(ids(a.Pass), ids(b.Pass)) {
			t.Errorf("%s: the same seed gave different passes", name)
		}
		if reflect.DeepEqual(ids(a.Pass), ids(c.Pass)) {
			t.Errorf("%s: seeds 1 and 2 gave the same pass", name)
		}
		seen := map[string]bool{}
		for _, q := range a.Distinct {
			if seen[q.ID] {
				t.Errorf("%s: %s listed twice in Distinct", name, q.ID)
			}
			seen[q.ID] = true
		}
		for _, q := range a.Pass {
			if !seen[q.ID] {
				t.Errorf("%s: %s missing from Distinct", name, q.ID)
			}
		}
	}
	if _, err := Build("nope", 1, params()); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestChurnAsksAreOneLine(t *testing.T) {
	w, _ := Build("lubm_churn", 3, params())
	asks := 0
	for _, q := range w.Pass {
		if q.Kind != Ask {
			continue
		}
		asks++
		if strings.Contains(q.Text, "\n") || !strings.HasPrefix(q.Text, "PREFIX ") {
			t.Fatalf("ASK %q is not one line starting with PREFIX", q.Text)
		}
	}
	if asks != 180 {
		t.Fatalf("%d ASK reads per pass, want 180", asks)
	}
}

func TestNewQuery(t *testing.T) {
	q, err := NewQuery("T", Count, "?x a ub:Dept . ?x <http://e/p> $U . ?y ub:q ?x", map[string]string{"U": "http://e/u"})
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != "T http://e/u" || !reflect.DeepEqual(q.Vars, []string{"x", "y"}) || len(q.BGP) != 3 {
		t.Fatalf("query = %+v", q)
	}
	want := Prefix + "\nSELECT (COUNT(*) AS ?n) WHERE { ?x a ub:Dept . ?x <http://e/p> <http://e/u> . ?y ub:q ?x . }"
	if q.Text != want {
		t.Fatalf("text = %q\nwant   %q", q.Text, want)
	}
	for _, bad := range []string{"?x a", "?x a $V", "?x a dept"} {
		if _, err := NewQuery("T", Select, bad, nil); err == nil {
			t.Errorf("template %q accepted", bad)
		}
	}
}

func TestChurnStream(t *testing.T) {
	c := NewChurn(5)
	perUpdate := window / batch
	var first []Update
	for k := 0; k < perUpdate+3; k++ {
		u := c.Next()
		if u.Seq != k || u.Inserted != 5*batch {
			t.Fatalf("update %d: %+v", k, u)
		}
		wantDel := 0
		if k >= perUpdate {
			wantDel = 5 * batch
		}
		if u.Deleted != wantDel {
			t.Fatalf("update %d deletes %d triples, want %d", k, u.Deleted, wantDel)
		}
		for _, line := range strings.Split(strings.NewReplacer("DELETE DATA { ", "", "INSERT DATA { ", "", " } ;", "", " }", "").Replace(u.Text), " .") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "<"+ChurnNS) {
				t.Fatalf("update %d has a triple outside the churn namespace: %q", k, line)
			}
		}
		first = append(first, u)
	}
	// The deletions of update perUpdate are the insertions of update 0.
	ins0 := strings.TrimPrefix(first[0].Text, "INSERT DATA ")
	del := first[perUpdate].Text[len("DELETE DATA "):strings.Index(first[perUpdate].Text, " ;")]
	if del != ins0 {
		t.Fatalf("update %d deletes\n%s\nbut update 0 inserted\n%s", perUpdate, del, ins0)
	}
	if p, s := c.Live(); p+s != window || p-s > 1 || s-p > 1 {
		t.Fatalf("live = %d professors, %d students; want %d entities, alternating", p, s, window)
	}
	c2 := NewChurn(5)
	c2.Next()
	c2.Next()
	c2.Next()
	if p, s := c2.Live(); p != (3*batch+1)/2 || s != 3*batch/2 {
		t.Fatalf("after 3 updates: %d professors, %d students", p, s)
	}
	if NewChurn(5).Next().Text == NewChurn(6).Next().Text {
		t.Fatal("the churn literals do not depend on the seed")
	}
}

func TestRounds(t *testing.T) {
	w := &Workload{WriterUpdates: 36, WriterRate: 30}
	// 20 s of schedule at 30/s is 600 updates: 17 rounds of 36.
	if got := w.Rounds(20); got != 17 {
		t.Fatalf("Rounds(20) = %d, want 17", got)
	}
	// A short run still sends enough updates for a p95.
	if got := w.Rounds(1); got*w.WriterUpdates < minUpdates {
		t.Fatalf("Rounds(1) = %d sends %d updates, want at least %d", got, got*w.WriterUpdates, minUpdates)
	}
}
