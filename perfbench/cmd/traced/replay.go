package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"rdfshapes"
	"rdfshapes/internal/annotator"
	"rdfshapes/internal/cardinality"
	"rdfshapes/internal/core"
	"rdfshapes/internal/engine"
	"rdfshapes/internal/gstats"
	"rdfshapes/internal/live"
	"rdfshapes/internal/rdf"
	"rdfshapes/internal/shacl"
	"rdfshapes/internal/sparql"
	"rdfshapes/internal/store"
	"rdfshapes/internal/wal"

	"rdfshapes/perfbench/internal/span"
)

// serverBudget is cmd/server's default -budget, the per-query
// operation budget the facade runs with.
const serverBudget = 50 << 20

// replay is the system assembled from its layers, mirroring what the
// rdfshapes facade does per call, with a span around every layer call.
type replay struct {
	rec   *span.Recorder
	live  *live.Store
	maint *live.Maintainer
	wal   *wal.Manager
	ps    planner
}

// planner mirrors the facade's estimator pair over the latest statistics.
type planner struct {
	shapes *shacl.ShapesGraph
	ss     *cardinality.ShapeEstimator
	gs     *cardinality.GlobalEstimator
}

// setupOut reports set-up figures that are not span times.
type setupOut struct {
	heapMB float64 // live heap of the loaded replay state after a GC
}

// newReplay loads the dataset layer by layer, as the facade's
// LoadNTriples plus WithDurability do, and creates a WAL directory with
// the first snapshot.
func newReplay(rec *span.Recorder, dataPath, walDir string) (*replay, setupOut, error) {
	var out setupOut
	heap0 := liveHeap()
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, out, err
	}
	defer f.Close()
	var g rdf.Graph
	rec.Do("rdf.ParseNTriples", func() { g, err = rdf.ParseNTriples(f) })
	if err != nil {
		return nil, out, err
	}
	var st *store.Store
	rec.Do("store.Load", func() { st = store.Load(g) })
	g = nil
	var shapes *shacl.ShapesGraph
	rec.Do("shacl.InferShapes", func() { shapes, err = shacl.InferShapes(st) })
	if err != nil {
		return nil, out, err
	}
	var global *gstats.Global
	rec.Do("gstats.Compute", func() { global = gstats.Compute(st) })
	if shapes.Len() > 0 {
		rec.Do("annotator.Annotate", func() { err = annotator.Annotate(shapes, st) })
		if err != nil {
			return nil, out, err
		}
	}
	r := &replay{rec: rec, live: live.Wrap(st)}
	r.live.SetAutoCompact(rdfshapes.DefaultCompactThreshold)
	// The trigger is checked after each update (see update) instead of
	// firing a background goroutine, so the replay stays one goroutine.
	r.maint = live.NewMaintainer(live.Stats{Global: global, Shapes: shapes}, rdfshapes.DefaultDriftThreshold, nil)
	r.refresh()
	out.heapMB = float64(liveHeap()-heap0) / (1 << 20)
	rec.Do("wal.Create", func() {
		r.wal, err = wal.Create(walDir, wal.Options{Sync: wal.SyncAlways}, st.WriteSnapshot)
	})
	return r, out, err
}

func (r *replay) close() {
	r.live.Close()
	r.wal.Close()
}

func (r *replay) refresh() {
	s := r.maint.Current()
	r.ps = planner{
		shapes: s.Shapes,
		ss:     cardinality.NewShapeEstimator(s.Shapes, s.Global),
		gs:     cardinality.NewGlobalEstimator(s.Global),
	}
}

// readOut is what one replayed read returns, plus its engine counters.
type readOut struct {
	answer      string // canonical answer, comparable with the facade's
	ops         int64
	resultRows  int64
	intermed    int64
	mergeWidth  int
	qerror      float64 // 0 when the run stopped early
	materialize uint64  // bytes allocated in engine.Materialize
}

// read parses, plans, annotates, executes and materializes one query
// the way rdfshapes.DB.QueryCtx does for the forms the workloads use.
func (r *replay) read(text string) (readOut, error) {
	var out readOut
	var q *sparql.Query
	var err error
	r.rec.Do("sparql.Parse", func() { q, err = sparql.Parse(text) })
	if err != nil {
		return out, err
	}
	if len(q.UnionGroups) > 0 || len(q.Construct) > 0 || q.Aggregate != nil && (q.Aggregate.Var != "" || q.Distinct) {
		return out, fmt.Errorf("the replay does not mirror this query form: %s", text)
	}
	snap := r.live.Snapshot()
	// The paper's Section 6.1 rule, as the facade applies it.
	var est cardinality.Estimator = r.ps.gs
	if q.HasTypePattern() && r.ps.shapes.Annotated() {
		est = r.ps.ss
	}
	var plan *core.Plan
	r.rec.Do("core.Optimize", func() { plan = core.Optimize(q, est) })
	r.rec.Do("core.AnnotatePhysical", func() {
		core.AnnotatePhysical(plan, core.LeadAvailableProbe, core.SourceLegRows(snap))
	})
	opts := engine.Options{
		MaxOps:          serverBudget,
		Parallelism:     runtime.GOMAXPROCS(0),
		MergeWidth:      plan.MergeWidth,
		MergeVar:        plan.MergeVar,
		Filters:         q.Filters,
		Optionals:       q.Optionals,
		OptionalFilters: q.OptionalFilters,
		CountOnly:       q.Aggregate != nil,
	}
	if q.Ask {
		opts.Limit = 1
	}
	var er *engine.Result
	r.rec.Do("engine.Run", func() { er, err = engine.Run(snap, plan.Order(), opts) })
	if err != nil {
		return out, err
	}
	if er.TimedOut {
		return out, fmt.Errorf("operation budget exceeded")
	}
	out.ops, out.resultRows, out.mergeWidth = er.Ops, er.Count, er.MergeWidth
	for _, n := range er.Intermediate {
		out.intermed += n
	}
	if n := len(er.Intermediate); n > 0 && n == len(plan.Steps) && !er.LimitHit && !er.Truncated {
		out.qerror = cardinality.QError(plan.Steps[n-1].JoinEstimate, float64(er.Intermediate[n-1]))
	}
	switch {
	case q.Aggregate != nil:
		out.answer = "count " + strconv.FormatInt(er.Count, 10)
		return out, nil
	case q.Ask:
		out.answer = "ask " + strconv.FormatBool(er.Count > 0)
		return out, nil
	}
	var rows []map[string]string
	a0 := allocBytes()
	r.rec.Do("engine.Materialize", func() { rows, err = engine.Materialize(snap, q, er) })
	out.materialize = allocBytes() - a0
	if err != nil {
		return out, err
	}
	out.answer = rowsKey(rows)
	return out, nil
}

// facadeAnswer renders a facade result in readOut.answer's form.
func facadeAnswer(res *rdfshapes.Result, kind string) (string, error) {
	switch kind {
	case "count":
		if len(res.Rows) != 1 {
			return "", fmt.Errorf("count result has %d rows", len(res.Rows))
		}
		t, err := rdf.ParseTerm(res.Rows[0]["n"])
		if err != nil {
			return "", err
		}
		return "count " + t.Value, nil
	case "ask":
		return "ask " + strconv.FormatBool(len(res.Rows) > 0), nil
	}
	return rowsKey(res.Rows), nil
}

// rowsKey is an order-independent rendering of a row multiset.
func rowsKey(rows []map[string]string) string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		vars := make([]string, 0, len(row))
		for v := range row {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var sb strings.Builder
		for _, v := range vars {
			sb.WriteString(v + "=" + row[v] + "\x00")
		}
		keys[i] = sb.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// updateOut reports one replayed update.
type updateOut struct {
	inserted, deleted int
	drift             int64
	overlay           int
	walBytes          int64
}

// update applies one SPARQL UPDATE the way rdfshapes.DB.UpdateCtx does
// on a durable DB: per operation, log, apply, maintain statistics; then
// refresh the estimators, and re-annotate once drift passes the
// facade's default threshold.
func (r *replay) update(text string) (updateOut, error) {
	var out updateOut
	var req *sparql.UpdateRequest
	var err error
	r.rec.Do("sparql.ParseUpdate", func() { req, err = sparql.ParseUpdate(text) })
	if err != nil {
		return out, err
	}
	w0 := r.wal.Stats().SizeBytes
	for _, op := range req.Ops {
		var b live.Batch
		if op.Insert {
			b.Insert = op.Triples
		} else {
			b.Delete = op.Triples
		}
		r.rec.Do("wal.Manager.Append", func() { err = r.wal.Append(wal.Batch{Insert: b.Insert, Delete: b.Delete}) })
		if err != nil {
			return out, err
		}
		var ci live.CommitInfo
		r.rec.Do("live.Store.Apply", func() { ci = r.live.Apply(b) })
		d0 := r.maint.Drift()
		r.rec.Do("live.Maintainer.Apply", func() { r.maint.Apply(ci) })
		out.drift += r.maint.Drift() - d0
		out.inserted += len(ci.Inserted)
		out.deleted += len(ci.Deleted)
	}
	out.walBytes = r.wal.Stats().SizeBytes - w0
	r.rec.Do("cardinality.refresh", r.refresh)
	added, deleted := r.live.OverlaySize()
	out.overlay = added + deleted
	if r.maint.Drift() >= rdfshapes.DefaultDriftThreshold {
		r.rec.Do("rdfshapes.Reannotate", func() { err = r.reannotate() })
	}
	return out, err
}

// reannotate mirrors rdfshapes.DB.Reannotate on an unsharded DB.
func (r *replay) reannotate() error {
	var snap *live.Snapshot
	var err error
	r.rec.Do("live.Store.Compact", func() { snap, err = r.live.Compact() })
	if err != nil {
		return err
	}
	base := snap.Base()
	var global *gstats.Global
	r.rec.Do("gstats.Compute", func() { global = gstats.Compute(base) })
	shapes := r.ps.shapes.Clone()
	if shapes.Len() > 0 {
		r.rec.Do("annotator.Annotate", func() { err = annotator.Annotate(shapes, base) })
		if err != nil {
			return err
		}
	}
	r.maint.Reset(live.Stats{Global: global, Shapes: shapes})
	r.rec.Do("cardinality.refresh", r.refresh)
	return nil
}

// facade opens the system the way cmd/server does with default flags
// and -data (plus -data-dir when durable).
func facade(dataPath, dataDir string, durable bool) (*rdfshapes.DB, error) {
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	opts := []rdfshapes.Option{
		rdfshapes.WithOpsBudget(serverBudget),
		rdfshapes.WithAutoCompact(rdfshapes.DefaultCompactThreshold),
		rdfshapes.WithDriftThreshold(rdfshapes.DefaultDriftThreshold),
		rdfshapes.WithParallelism(runtime.GOMAXPROCS(0)),
	}
	if durable {
		opts = append(opts, rdfshapes.WithDurability(dataDir), rdfshapes.WithSyncPolicy(rdfshapes.SyncAlways))
	}
	return rdfshapes.LoadNTriples(f, opts...)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes returns the bytes allocated on the heap since the process
// started.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
