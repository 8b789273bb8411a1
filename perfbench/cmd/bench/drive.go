package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"rdfshapes/perfbench/internal/acct"
	"rdfshapes/perfbench/internal/ref"
	"rdfshapes/perfbench/internal/work"
)

// conn is one client connection: a transport that never opens a second
// connection, so the benchmark holds at most one per role.
type conn struct {
	c   *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// post sends one request and reads the whole body into the connection's
// buffer, valid until the next call.
func (c *conn) post(url, contentType, body string) (int, []byte, error) {
	resp, err := c.c.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) query(base string, q *work.Query) (int, []byte, error) {
	return c.post(base+"/sparql", "application/sparql-query", q.Text)
}

// answer is the reference answer of one query instance.
type answer struct {
	rows  []string // Select: sorted row keys
	count int64    // Count
	ask   bool     // Ask
}

func referenceAnswers(g *ref.Graph, qs []*work.Query) (map[*work.Query]answer, error) {
	out := make(map[*work.Query]answer, len(qs))
	for _, q := range qs {
		var a answer
		switch q.Kind {
		case work.Select:
			rows, err := g.Rows(q.BGP, q.Vars)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.ID, err)
			}
			a.rows = rows
		case work.Count:
			a.count = g.Count(q.BGP)
		case work.Ask:
			a.ask = g.Count(q.BGP) > 0
		}
		out[q] = a
	}
	return out, nil
}

// verified is what the untimed verification pass learned about one
// instance: the body length of its correct response, or that the
// server fails it.
type verified struct {
	length int
	fails  bool
}

// verify sends every distinct instance once and checks the full answer
// against the reference. It returns per-instance expectations for the
// cheap checks of the timed phase, and a description of every wrong
// answer.
func verify(c *conn, base string, qs []*work.Query, want map[*work.Query]answer) (map[*work.Query]verified, []string, error) {
	out := make(map[*work.Query]verified, len(qs))
	var wrong []string
	for _, q := range qs {
		status, body, err := c.query(base, q)
		if err != nil {
			return nil, nil, fmt.Errorf("verifying %s: %w", q.ID, err)
		}
		v, problem := check(q, status, body, want[q])
		if problem != "" {
			wrong = append(wrong, q.ID+": "+problem)
		}
		out[q] = v
	}
	return out, wrong, nil
}

// check compares one full response with the reference answer.
func check(q *work.Query, status int, body []byte, want answer) (verified, string) {
	if q.Kind == work.Ask {
		o, err := acct.Ask(status, body, want.ask)
		switch o {
		case acct.OK:
			return verified{length: len(body)}, ""
		case acct.Failed:
			return verified{fails: true}, ""
		}
		return verified{}, err.Error()
	}
	if status != http.StatusOK {
		return verified{}, fmt.Sprintf("status %d: %.200s", status, body)
	}
	switch q.Kind {
	case work.Select:
		rows, err := acct.Rows(body, q.Vars)
		if err != nil {
			return verified{}, err.Error()
		}
		if d := diffRows(rows, want.rows); d != "" {
			return verified{}, d
		}
	case work.Count:
		n, err := acct.CountValue(body)
		if err != nil {
			return verified{}, err.Error()
		}
		if n != want.count {
			return verified{}, fmt.Sprintf("count %d, reference %d", n, want.count)
		}
	}
	return verified{length: len(body)}, ""
}

func diffRows(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row multisets differ at sorted position %d: %q vs reference %q", i, got[i], want[i])
		}
	}
	return ""
}

// timedRead sends one read of the measured phase and classifies it with
// the cheap check: status plus body length equal to the verified
// response of the same instance; ASK bodies are small and are decoded.
func timedRead(c *conn, base string, q *work.Query, v verified, want answer, t *acct.Tally) error {
	start := time.Now()
	status, body, err := c.query(base, q)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return fmt.Errorf("%s: %w", q.ID, err)
	}
	switch {
	case q.Kind == work.Ask:
		o, err := acct.Ask(status, body, want.ask)
		if o == acct.OK && v.fails || o == acct.Failed && !v.fails {
			o = acct.Wrong // the same instance answered differently within one run
		}
		what := q.ID
		if err != nil {
			what += ": " + err.Error()
		}
		t.Add(o, ms, what)
	case status != http.StatusOK:
		t.Add(acct.Failed, ms, q.ID)
	case len(body) != v.length:
		t.Add(acct.Wrong, ms, fmt.Sprintf("%s: body %d bytes, verified %d", q.ID, len(body), v.length))
	default:
		t.Add(acct.OK, ms, q.ID)
	}
	return nil
}

// writerResult gathers one open-loop writer's samples.
type writerResult struct {
	tally   acct.Tally
	lateMS  []float64 // how late each request was sent after its due time
	updates int
	err     error
}

// runWriter sends n updates of the churn stream open loop: update i is
// due at start + i/rate. Each update is timed from its due time to its
// acknowledgement.
func runWriter(c *conn, base string, churn *work.Churn, n int, rate float64, start time.Time, res *writerResult) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lateMS = append(res.lateMS, float64(time.Since(due).Nanoseconds())/1e6)
		u := churn.Next()
		status, body, err := c.post(base+"/update", "application/sparql-update", u.Text)
		ms := float64(time.Since(due).Nanoseconds()) / 1e6
		if err != nil {
			res.err = fmt.Errorf("update %d: %w", u.Seq, err)
			return
		}
		res.updates++
		if status != http.StatusOK {
			res.tally.Add(acct.Failed, ms, fmt.Sprintf("update %d: status %d", u.Seq, status))
			continue
		}
		var ack struct{ Inserted, Deleted int }
		if err := json.Unmarshal(body, &ack); err != nil {
			res.tally.Add(acct.Wrong, ms, fmt.Sprintf("update %d: %v", u.Seq, err))
			continue
		}
		if ack.Inserted != u.Inserted || ack.Deleted != u.Deleted {
			res.tally.Add(acct.Wrong, ms, fmt.Sprintf("update %d acknowledged +%d/-%d, reference +%d/-%d",
				u.Seq, ack.Inserted, ack.Deleted, u.Inserted, u.Deleted))
			continue
		}
		res.tally.Add(acct.OK, ms, "")
	}
}

// round runs one reader pass and, with PerRound, beside it on a second
// connection the writer's share of the round. The round ends when both
// are done. Without PerRound the writer runs on its own schedule and
// round leaves wr alone.
func round(reader, writer *conn, base string, w *work.Workload, exp map[*work.Query]verified,
	want map[*work.Query]answer, churn *work.Churn, reads *acct.Tally, wr *writerResult) (readerIdle time.Duration, err error) {
	start := time.Now()
	var wg sync.WaitGroup
	if w.PerRound {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWriter(writer, base, churn, w.WriterUpdates, w.WriterRate, start, wr)
		}()
	}
	for _, q := range w.Pass {
		if err := timedRead(reader, base, q, exp[q], want[q], reads); err != nil {
			wg.Wait()
			return 0, err
		}
	}
	idle := time.Now()
	wg.Wait()
	if !w.PerRound {
		return 0, nil
	}
	return time.Since(idle), wr.err
}

// checkNamespace counts the live churn entities through the server and
// compares them with what the acknowledged updates must have left.
func checkNamespace(c *conn, base string, churn *work.Churn, baseTriples int) []string {
	var wrong []string
	profs, students := work.NamespaceCounts()
	wantP, wantS := churn.Live()
	for _, x := range []struct {
		q    *work.Query
		want int
	}{{profs, wantP}, {students, wantS}} {
		status, body, err := c.query(base, x.q)
		if err != nil || status != http.StatusOK {
			wrong = append(wrong, fmt.Sprintf("%s: status %d, %v", x.q.ID, status, err))
			continue
		}
		n, err := acct.CountValue(body)
		if err != nil || n != int64(x.want) {
			wrong = append(wrong, fmt.Sprintf("%s: server counts %d (%v), reference %d", x.q.ID, n, err, x.want))
		}
	}
	resp, err := c.c.Get(base + "/healthz")
	if err != nil {
		return append(wrong, "healthz: "+err.Error())
	}
	defer resp.Body.Close()
	var h struct{ Triples int }
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return append(wrong, "healthz: "+err.Error())
	}
	if want := baseTriples + 5*(wantP+wantS); h.Triples != want {
		wrong = append(wrong, fmt.Sprintf("healthz reports %d triples, reference %d", h.Triples, want))
	}
	return wrong
}

// gauge reads one unlabeled gauge from the server's /metrics page.
func gauge(c *conn, base, name string) (float64, error) {
	resp, err := c.c.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var x float64
			if _, err := fmt.Sscan(v, &x); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			return x, nil
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}
