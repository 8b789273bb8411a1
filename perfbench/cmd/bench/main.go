// Command bench is the repository's end-to-end benchmark. It starts the
// real cmd/server on the generated LUBM dataset, drives one workload over
// loopback HTTP from this process (a reader connection and a writer
// connection), checks every answer against the benchmark's own reference
// evaluator, and prints the metrics as the last line of standard output.
// With --trace 1 it also runs cmd/traced, the in-process layer-by-layer
// replay, and prints the per-layer metrics instead.
//
// It expects to run from the repository root after perfbench/run.sh has
// built the binaries into .bench_build/bin; see perfbench/README.md.
//
//	bench --workload lubm_export --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rdfshapes/perfbench/internal/acct"
	"rdfshapes/perfbench/internal/nt"
	"rdfshapes/perfbench/internal/ref"
	"rdfshapes/perfbench/internal/stats"
	"rdfshapes/perfbench/internal/work"
)

const (
	buildDir   = ".bench_build"
	readmePath = "perfbench/README.md"
	specPath   = "BENCHMARK.json"
	// setupRuns is how many times a run starts the server; setup_s is the
	// median. The last server started carries the workload.
	setupRuns = 3
	// maxMeasure caps the measured phase so a run ends in time even on a
	// system too slow to collect enough samples.
	maxMeasure = 100 * time.Second
	rssEvery   = 50 * time.Millisecond
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(work.Names, ", "))
	seed := flag.Int64("seed", 1, "seed of the operation sequence")
	seconds := flag.Int("seconds", 10, "length of the writer's schedule, which the measured phase spans")
	trace := flag.Int("trace", 0, "1: also run the traced replay and print per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(name string, seed int64, seconds int, trace bool) error {
	var sp spec
	if b, err := os.ReadFile(specPath); err != nil {
		return err
	} else if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	bin := func(n string) string { return filepath.Join(buildDir, "bin", n) }
	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	phase := time.Now()
	logPhase := func(what string) {
		fmt.Fprintf(os.Stderr, "bench: %s took %.2fs\n", what, time.Since(phase).Seconds())
		phase = time.Now()
	}
	dataPath, file, err := dataset(bin("datagen"))
	if err != nil {
		return err
	}
	params, err := work.ParamsOf(file)
	if err != nil {
		return err
	}
	w, err := work.Build(name, seed, params)
	if err != nil {
		return err
	}
	graph := ref.New(file.Triples)
	file = nil // the reference graph holds what is still needed
	logPhase("dataset check")
	want, err := referenceAnswers(graph, w.Distinct)
	if err != nil {
		return err
	}
	baseTriples := graph.Len()
	graph = nil
	logPhase("reference answers")

	// Set-up: start the server setupRuns times; keep the last.
	var setups []float64
	var srv *server
	for i := 0; i < setupRuns; i++ {
		args := []string{"-data", dataPath}
		if w.Durable {
			args = append(args, "-data-dir", filepath.Join(runDir, fmt.Sprintf("data-%d", i)))
		}
		s, secs, err := startServer(bin("server"), filepath.Join(runDir, fmt.Sprintf("server-%d.log", i)), args)
		if err != nil {
			return err
		}
		setups = append(setups, secs)
		if i < setupRuns-1 {
			s.kill()
			continue
		}
		srv = s
	}
	defer srv.stop()

	logPhase("set-up")
	reader, writer := newConn(), newConn()
	defer reader.close()
	defer writer.close()
	exp, wrong, err := verify(reader, srv.base, w.Distinct, want)
	if err != nil {
		return err
	}
	// The timed checks need no rows. Drop them, with the reference graph,
	// and collect now, so the benchmark's own garbage collector has
	// little to mark while it measures.
	for q, a := range want {
		a.rows = nil
		want[q] = a
	}
	runtime.GC()

	logPhase("verification pass")
	// Measured phase: whole reader passes beside the writer's schedule
	// of Rounds(seconds) rounds. With PerRound (lubm_churn) every round
	// pairs a pass with the writer's share; otherwise the writer runs its
	// whole schedule and the reader replays passes until the writer is
	// done and at least minReads reads have succeeded.
	churn := work.NewChurn(seed)
	var reads acct.Tally
	var wr writerResult
	var readerIdle time.Duration
	minReads, rounds := stats.MinSamples(95), w.Rounds(seconds)
	steal0, err := hostStealSeconds()
	if err != nil {
		return err
	}
	cpu0, err := procCPUSeconds(srv.pid())
	if err != nil {
		return err
	}
	rss := sampleRSS(srv.pid(), rssEvery)
	start := time.Now()
	writerDone := make(chan struct{})
	if w.PerRound {
		close(writerDone)
	} else {
		go func() {
			defer close(writerDone)
			runWriter(writer, srv.base, churn, rounds*w.WriterUpdates, w.WriterRate, start, &wr)
		}()
	}
	// fail ends the measured phase early; the writer ends its schedule
	// (or fails on the stopped server) before the run returns.
	fail := func(err error) error {
		rss.stop()
		<-writerDone
		return err
	}
	var roundQPS, roundSteal []float64 // successful reads per second, and host steal, of each round
	for n := 1; ; n++ {
		ok0, t0 := len(reads.Latencies), time.Now()
		st0, _ := hostStealSeconds() // read successfully above
		idle, err := round(reader, writer, srv.base, w, exp, want, churn, &reads, &wr)
		if err != nil {
			return fail(err)
		}
		readerIdle += idle
		roundQPS = append(roundQPS, float64(len(reads.Latencies)-ok0)/(time.Since(t0)-idle).Seconds())
		st1, _ := hostStealSeconds()
		roundSteal = append(roundSteal, st1-st0)
		if w.PerRound && n == rounds || !w.PerRound && closed(writerDone) && len(reads.Latencies) >= minReads {
			break
		}
		if el := time.Since(start); el > maxMeasure {
			return fail(fmt.Errorf("only %d reads succeeded in %v", len(reads.Latencies), el))
		}
	}
	measured := time.Since(start)
	rssSamples := rss.stop()
	if wr.err != nil {
		return wr.err
	}
	cpu1, err := procCPUSeconds(srv.pid())
	if err != nil {
		return err
	}
	steal1, err := hostStealSeconds()
	if err != nil {
		return err
	}

	// The statistics drift left by the measured phase's updates: the same
	// in every run when every run re-annotates at the same updates.
	drift, err := gauge(reader, srv.base, "rdfshapes_stats_drift")
	if err != nil {
		return err
	}
	logPhase("measured phase")
	wrong = append(wrong, checkNamespace(reader, srv.base, churn, baseTriples)...)
	logPhase("churn check")
	wrong = append(wrong, reads.Wrong...)
	wrong = append(wrong, wr.tally.Wrong...)

	setupS := stats.Median(setups)
	qp95, err := stats.Tail(reads.Latencies, 95)
	if err != nil {
		return fmt.Errorf("read latency: %w", err)
	}
	up50 := stats.Median(wr.tally.Latencies)
	up95, err := stats.Tail(wr.tally.Latencies, 95)
	if err != nil {
		return fmt.Errorf("update latency: %w", err)
	}
	okReads := len(reads.Latencies)
	// The reader's share of the measured phase: without the time it
	// waited at round ends for the writer's share of the round.
	readerS := (measured - readerIdle).Seconds()
	cpuPerOp := (cpu1 - cpu0) * 1000 / float64(reads.Attempted+wr.updates)
	e2e := map[string]float64{
		"setup_s":       setupS,
		"query_qps":     float64(okReads) / readerS,
		"query_p50_ms":  stats.Median(reads.Latencies),
		"query_p95_ms":  qp95,
		"update_p50_ms": up50,
		"update_p95_ms": up95,
		"server_rss_mb": stats.Median(rssSamples),
	}
	late50, late := stats.Median(wr.lateMS), 0.0
	for _, l := range wr.lateMS {
		late = math.Max(late, l)
	}
	diag := map[string]any{
		"workload": name, "seed": seed, "rounds": len(roundQPS), "measured_s": measured.Seconds(),
		"reads_attempted": reads.Attempted, "reads_failed": reads.Failed, "updates": wr.updates,
		"setup_runs_s":         setups,
		"host_steal_s":         steal1 - steal0,
		"server_cpu_s":         cpu1 - cpu0,
		"server_cpu_ms_per_op": cpuPerOp,
		"writer_late_p50_ms":   late50, "writer_late_max_ms": late,
		"reader_waited_for_writer_s": readerIdle.Seconds(),
		"stats_drift_after_measured": drift,
		"rss_samples":                len(rssSamples),
		"update_ms_p90_p99_max":      []float64{pct(wr.tally.Latencies, 90), pct(wr.tally.Latencies, 99), pct(wr.tally.Latencies, 100)},
		"round_qps":                  roundQPS,
		"round_steal_s":              roundSteal,
	}
	if len(wrong) > 0 {
		diag["wrong"] = head(wrong, 10)
	}
	d, _ := json.Marshal(map[string]any{"diagnostics": diag}) // plain values always marshal
	fmt.Println(string(d))

	res := result{
		Correct:   len(wrong) == 0,
		Attempted: reads.Attempted + wr.tally.Attempted,
		Failed:    reads.Failed + wr.tally.Failed,
		Metrics:   map[string]value{},
	}
	metrics, specs := e2e, sp.EndToEnd
	if trace {
		metrics, err = traced(bin("traced"), name, seed, dataPath, runDir)
		if err != nil {
			return err
		}
		// Server CPU per operation of the untraced run's measured phase:
		// reads and the writer's updates beside them.
		metrics["server.cpu_ms_per_query"] = cpuPerOp
		if m, ok := metrics["matched"]; !ok || m != 1 {
			res.Correct = false
		}
		specs = sp.PerLayer
	}
	for _, m := range specs {
		v, ok := metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

func pct(xs []float64, p float64) float64 {
	v, _ := stats.Percentile(xs, p)
	return v
}

func head(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// dataset generates the LUBM file once per checkout and checks it
// against the fingerprint README.md records, so a change to the
// generator stops the benchmark instead of changing its inputs.
func dataset(datagen string) (string, *nt.File, error) {
	dir := filepath.Join(buildDir, "data")
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d.nt", work.Dataset, work.Scale, work.DataSeed))
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", nil, err
		}
		if err := work.Generate(datagen, path); err != nil {
			return "", nil, err
		}
	} else if err != nil {
		return "", nil, err
	}
	f, err := nt.Read(path)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	readme, err := os.ReadFile(readmePath)
	if err != nil {
		return "", nil, err
	}
	if line := work.FingerprintLine(f); !strings.Contains(string(readme), line) {
		return "", nil, fmt.Errorf("dataset fingerprint %q is not the one %s records: the generator changed (perfbench/run.sh --fingerprint recomputes it; update the README only if the change is intended)", line, readmePath)
	}
	return path, f, nil
}

// traced runs the in-process replay and returns its metrics; "matched"
// is 1 when the replay agreed with the facade on every operation.
func traced(bin, name string, seed int64, dataPath, runDir string) (map[string]float64, error) {
	spans := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "--workload", name, "--seed", fmt.Sprint(seed), "--data", dataPath,
		"--spans", spans, "--workdir", runDir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Ops        int                `json:"ops"`
		Mismatches []string           `json:"mismatches"`
		Metrics    map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("traced run output: %w", err)
	}
	d, _ := json.Marshal(map[string]any{"traced": map[string]any{ // plain values always marshal
		"ops": res.Ops, "mismatches": res.Mismatches, "spans": spans}})
	fmt.Println(string(d))
	return res.Metrics, nil
}
