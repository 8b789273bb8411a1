// Command traced is the benchmark's traced run. In one process it loads
// the dataset twice: once through the rdfshapes facade, as cmd/server
// does, and once layer by layer with a span around every call into a
// layer's exported functions. It then drives a workload's operation
// sequence through both, checks that the layer-by-layer replay returns
// what the facade returns on every operation, writes the spans to a file,
// and prints the per-layer metrics derived from them as one JSON line.
//
//	traced --workload lubm_churn --seed 1 --data lubm.nt --spans out.jsonl --workdir tmp
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rdfshapes"
	"rdfshapes/internal/obsv"
	"rdfshapes/internal/server"

	"rdfshapes/perfbench/internal/nt"
	"rdfshapes/perfbench/internal/span"
	"rdfshapes/perfbench/internal/stats"
	"rdfshapes/perfbench/internal/work"
)

// How much of each workload the traced run replays: lubm_count's pass
// is short, so it runs three times; every workload sends fifteen rounds
// of the writer's updates (540), spread evenly through the reads, as the
// writer runs beside the reader in the end-to-end run.
const (
	countPasses = 3
	churnRounds = 15
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(work.Names, ", "))
	seed := flag.Int64("seed", 1, "seed of the operation sequence")
	data := flag.String("data", "", "the generated N-Triples dataset")
	spans := flag.String("spans", "spans.jsonl", "file the spans are written to")
	workdir := flag.String("workdir", ".", "directory for the durability directories")
	flag.Parse()
	if err := run(*name, *seed, *data, *spans, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, data, spansPath, workdir string) error {
	f, err := nt.Read(data)
	if err != nil {
		return err
	}
	params, err := work.ParamsOf(f)
	if err != nil {
		return err
	}
	f = nil
	w, err := work.Build(name, seed, params)
	if err != nil {
		return err
	}

	rec := span.New()
	var rp *replay
	var setup setupOut
	rec.Do("setup", func() { rp, setup, err = newReplay(rec, data, filepath.Join(workdir, "replay-wal")) })
	if err != nil {
		return err
	}
	defer rp.close()
	db, err := facade(data, filepath.Join(workdir, "facade-data"), w.Durable)
	if err != nil {
		return err
	}
	defer db.Close()
	d := &runner{
		rec: rec, rp: rp, db: db, churn: work.NewChurn(seed),
		collector: obsv.NewCollector(obsv.DefaultRingSize),
	}
	db.SetCollector(d.collector)
	d.handler = server.NewWithConfig(db, server.Config{QueryTimeout: 30 * time.Second})

	updates := churnRounds * w.WriterUpdates
	passes := 1
	if name == "lubm_count" {
		passes = countPasses
	}
	var reads []*work.Query
	for p := 0; p < passes; p++ {
		reads = append(reads, w.Pass...)
	}
	for i, q := range reads {
		d.read(q, "read")
		for u := 0; u < updates; u++ {
			if u*len(reads)/updates == i {
				d.update()
			}
		}
	}
	// lubm_count never materializes; its Materialize figures come from
	// one pass of lubm_export, the workload that owns them.
	materializeOp := "read"
	if name == "lubm_count" {
		exp, err := work.Build("lubm_export", seed, params)
		if err != nil {
			return err
		}
		for _, q := range exp.Pass {
			d.read(q, "read.export")
		}
		materializeOp = "read.export"
	}
	if d.err != nil {
		return d.err
	}
	if err := rec.WriteFile(spansPath); err != nil {
		return err
	}
	m := d.metrics(setup, materializeOp)
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v: the sequence never exercised its layer", k, v)
		}
	}
	out, err := json.Marshal(map[string]any{"mismatches": d.mismatches, "ops": d.op, "metrics": m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runner sends each operation through the facade, the replay and the
// HTTP handler, and keeps the per-operation figures spans do not hold.
type runner struct {
	rec       *span.Recorder
	rp        *replay
	db        *rdfshapes.DB
	collector *obsv.Collector
	handler   *server.Handler
	churn     *work.Churn

	op         int
	err        error
	mismatches []string

	reads        []readOut // of op "read"
	export       []readOut // of op "read.export"
	tracedNS     []float64 // replay with spans, per "read"
	untracedNS   []float64 // replay without a recorder, per "read"
	collectorNS  []float64 // facade with the collector minus without, per "read"
	facadeAlloc  uint64
	handlerAlloc uint64
	respBytes    int64
	updates      []updateOut
}

func (d *runner) mismatch(format string, args ...any) {
	if len(d.mismatches) < 20 {
		d.mismatches = append(d.mismatches, fmt.Sprintf(format, args...))
	}
}

func (d *runner) read(q *work.Query, opName string) {
	if d.err != nil {
		return
	}
	d.op++
	d.rec.SetOp(d.op)
	kind := map[work.Kind]string{work.Select: "select", work.Count: "count", work.Ask: "ask"}[q.Kind]
	ctx := context.Background()
	d.rec.Do(opName, func() {
		// Each pair of calls alternates which runs first, so the one that
		// finds the caches warm is not always the same.
		var plain, res *rdfshapes.Result
		var errPlain, errF error
		var facadeAlloc uint64
		var with, without time.Duration
		withCollector := func() {
			a0 := allocBytes()
			with = d.rec.Do("rdfshapes.QueryCtx", func() { res, errF = d.db.QueryCtx(ctx, q.Text) })
			facadeAlloc = allocBytes() - a0
		}
		withoutCollector := func() {
			d.db.SetCollector(nil)
			without = d.rec.Do("rdfshapes.QueryCtx.nocollector", func() { plain, errPlain = d.db.QueryCtx(ctx, q.Text) })
			d.db.SetCollector(d.collector)
		}
		var out readOut
		var errR error
		var spanned, untraced time.Duration
		traced := func() { spanned = d.rec.Do("replay", func() { out, errR = d.rp.read(q.Text) }) }
		bare := func() {
			d.rp.rec = nil
			t := time.Now()
			_, _ = d.rp.read(q.Text) // the traced call's result is the one checked
			untraced = time.Since(t)
			d.rp.rec = d.rec
		}
		if d.op%2 == 0 {
			withCollector()
			withoutCollector()
			traced()
			bare()
		} else {
			withoutCollector()
			withCollector()
			bare()
			traced()
		}

		req := httptest.NewRequest("POST", "/sparql", strings.NewReader(q.Text))
		req.Header.Set("Content-Type", "application/sparql-query")
		resp := httptest.NewRecorder()
		a1 := allocBytes()
		d.rec.Do("server.Handler", func() { d.handler.ServeHTTP(resp, req) })
		handlerAlloc := allocBytes() - a1

		if errPlain != nil || errF != nil || errR != nil {
			d.err = fmt.Errorf("%s: facade %v / %v, replay %v", q.ID, errPlain, errF, errR)
			return
		}
		if resp.Code != 200 {
			d.err = fmt.Errorf("%s: handler status %d", q.ID, resp.Code)
			return
		}
		for _, r := range []*rdfshapes.Result{plain, res} {
			got, err := facadeAnswer(r, kind)
			if err != nil || got != out.answer {
				d.mismatch("%s: the replay's answer differs from the facade's (%v)", q.ID, err)
			}
		}
		if opName == "read.export" {
			d.export = append(d.export, out)
			return
		}
		d.reads = append(d.reads, out)
		d.tracedNS = append(d.tracedNS, float64(spanned.Nanoseconds()))
		d.untracedNS = append(d.untracedNS, float64(untraced.Nanoseconds()))
		d.collectorNS = append(d.collectorNS, float64((with - without).Nanoseconds()))
		d.facadeAlloc += facadeAlloc
		d.handlerAlloc += handlerAlloc
		d.respBytes += int64(resp.Body.Len())
	})
}

func (d *runner) update() {
	if d.err != nil {
		return
	}
	d.op++
	d.rec.SetOp(d.op)
	u := d.churn.Next()
	d.rec.Do("update", func() {
		var res *rdfshapes.UpdateResult
		var errF, errR error
		d.rec.Do("rdfshapes.UpdateCtx", func() { res, errF = d.db.UpdateCtx(context.Background(), u.Text) })
		var out updateOut
		d.rec.Do("replay", func() { out, errR = d.rp.update(u.Text) })
		if errF != nil || errR != nil {
			d.err = fmt.Errorf("update %d: facade %v, replay %v", u.Seq, errF, errR)
			return
		}
		if res.Inserted != out.inserted || res.Deleted != out.deleted || out.inserted != u.Inserted || out.deleted != u.Deleted {
			d.mismatch("update %d: facade +%d/-%d, replay +%d/-%d, reference +%d/-%d",
				u.Seq, res.Inserted, res.Deleted, out.inserted, out.deleted, u.Inserted, u.Deleted)
		}
		d.updates = append(d.updates, out)
	})
}

// metrics derives the per-layer figures. Times are means per operation
// (per call where noted) of span self times, unless named otherwise.
func (d *runner) metrics(setup setupOut, materializeOp string) map[string]float64 {
	agg := span.ByPath(d.rec.Spans())
	self := func(path string) float64 { return float64(agg[path].Self) }
	total := func(path string) float64 { return float64(agg[path].Total) }
	n, u := float64(len(d.reads)), float64(len(d.updates))
	m := map[string]float64{
		"rdf.parse_s":          self("setup/rdf.ParseNTriples") / 1e9,
		"store.load_s":         self("setup/store.Load") / 1e9,
		"shacl.infer_s":        self("setup/shacl.InferShapes") / 1e9,
		"gstats.compute_s":     self("setup/gstats.Compute") / 1e9,
		"annotator.annotate_s": self("setup/annotator.Annotate") / 1e9,
		"wal.create_s":         self("setup/wal.Create") / 1e9,
		"store.heap_mb":        setup.heapMB,

		"sparql.parse_us":  self("read/replay/sparql.Parse") / n / 1e3,
		"core.optimize_us": self("read/replay/core.Optimize") / n / 1e3,
		"core.annotate_us": self("read/replay/core.AnnotatePhysical") / n / 1e3,
		// The median of per-operation differences: the collector's cost is
		// small beside the spread of large queries.
		"obsv.trace_us": stats.Median(d.collectorNS) / 1e3,
		"engine.run_ms": self("read/replay/engine.Run") / n / 1e6,
		// The facade's own layer calls cannot be spanned from outside;
		// the replay's layer spans for the same operation stand in.
		"rdfshapes.query_self_ms": (total("read/rdfshapes.QueryCtx.nocollector") -
			(total("read/replay") - self("read/replay"))) / n / 1e6,
		"server.handler_self_ms":  (total("read/server.Handler") - total("read/rdfshapes.QueryCtx")) / n / 1e6,
		"server.handler_alloc_mb": (float64(d.handlerAlloc) - float64(d.facadeAlloc)) / n / (1 << 20),
		"server.response_bytes":   float64(d.respBytes) / n,

		"sparql.parse_update_us":  self("update/replay/sparql.ParseUpdate") / u / 1e3,
		"wal.append_ms":           total("update/replay/wal.Manager.Append") / u / 1e6,
		"live.apply_ms":           total("update/replay/live.Store.Apply") / u / 1e6,
		"live.maintain_ms":        total("update/replay/live.Maintainer.Apply") / u / 1e6,
		"cardinality.refresh_us":  total("update/replay/cardinality.refresh") / u / 1e3,
		"rdfshapes.reannotations": float64(agg["update/replay/rdfshapes.Reannotate"].Count),
		"rdfshapes.reannotate_ms": total("update/replay/rdfshapes.Reannotate") / float64(agg["update/replay/rdfshapes.Reannotate"].Count) / 1e6,
		"live.compactions":        float64(agg["update/replay/rdfshapes.Reannotate/live.Store.Compact"].Count),
	}

	var ops, results, intermed, merge int64
	var logQ float64
	var nq int
	for _, r := range d.reads {
		ops += r.ops
		results += r.resultRows
		intermed += r.intermed
		merge += int64(r.mergeWidth)
		if r.qerror > 0 {
			logQ += math.Log(r.qerror)
			nq++
		}
	}
	m["engine.rows_visited"] = float64(ops) / n
	m["engine.intermediate_rows"] = float64(intermed) / n
	m["engine.rows_visited_per_result"] = float64(ops) / float64(results)
	m["engine.merge_steps"] = float64(merge) / n
	m["cardinality.qerror_gmean"] = math.Exp(logQ / float64(nq))

	matOut := d.reads
	if materializeOp != "read" {
		matOut = d.export
	}
	var matAlloc uint64
	for _, r := range matOut {
		matAlloc += r.materialize
	}
	calls := float64(agg[materializeOp+"/replay/engine.Materialize"].Count)
	m["engine.materialize_ms"] = self(materializeOp+"/replay/engine.Materialize") / calls / 1e6
	m["engine.materialize_alloc_mb"] = float64(matAlloc) / calls / (1 << 20)

	var overlay []float64
	var walBytes, changed, drift int64
	for _, up := range d.updates {
		overlay = append(overlay, float64(up.overlay))
		walBytes += up.walBytes
		changed += int64(up.inserted + up.deleted)
		drift += up.drift
	}
	m["live.overlay_triples"] = stats.Median(overlay)
	m["live.overlay_triples_max"], _ = stats.Percentile(overlay, 100)
	m["wal.bytes_per_triple"] = float64(walBytes) / float64(changed)
	m["live.drift_per_update"] = float64(drift) / u

	// Tracing overhead: the replay per operation with spans against the
	// same replay without a recorder.
	m["trace.overhead_us"] = (stats.Median(d.tracedNS) - stats.Median(d.untracedNS)) / 1e3

	m["matched"] = 0
	if len(d.mismatches) == 0 {
		m["matched"] = 1
	}
	return m
}
