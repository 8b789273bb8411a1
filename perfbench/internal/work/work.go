// Package work defines the benchmark's workloads: the query templates, the
// seeded sequence of query instances one pass replays, and the churn
// writer's update stream with the acknowledgement counts it must receive.
// The templates live here rather than in the system's own workload lists,
// so a change there cannot silently change what the benchmark measures.
package work

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"

	"rdfshapes/perfbench/internal/nt"
	"rdfshapes/perfbench/internal/ref"
)

// The dataset every workload runs on: the repository's LUBM generator at
// this scale and generator seed. README.md records its fingerprint.
const (
	Dataset  = "lubm"
	Scale    = 8
	DataSeed = 7
)

// Vocabulary.
const (
	UB      = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
	Prefix  = "PREFIX ub: <" + UB + ">"
	ChurnNS = "http://bench.example/churn/"
	Hub     = ChurnNS + "hub"
)

// Kind is the form of a read.
type Kind int

const (
	Select Kind = iota
	Count
	Ask
)

// Query is one query instance: a template with its parameters bound.
type Query struct {
	ID       string // template name plus bound parameters; unique per instance
	Template string
	Kind     Kind
	Vars     []string // the variables SELECT * projects, in first-use order
	BGP      []ref.Pattern
	Text     string // what is sent to the server
}

// Workload is one traffic mix.
type Workload struct {
	Name string
	// Pass is one reader pass, replayed unchanged in every round.
	Pass []*Query
	// Distinct lists each instance of Pass once, in first-use order.
	Distinct []*Query
	// In every workload a writer sends the churn stream beside the
	// reader, open loop at WriterRate per second: Rounds·WriterUpdates
	// updates in all. With PerRound (lubm_churn) each round pairs one
	// reader pass with WriterUpdates of them. Otherwise the writer sends
	// its whole schedule while the reader replays whole passes until the
	// writer is done.
	WriterUpdates int
	WriterRate    float64
	PerRound      bool
	// Durable runs the server with a data directory (WAL + snapshots).
	Durable bool
}

// Names lists the workloads in the order the README describes them.
// BENCHMARK.json lists the first two; lubm_churn runs by hand only
// (README.md, "Why lubm_churn is not in BENCHMARK.json").
var Names = []string{"lubm_export", "lubm_count", "lubm_churn"}

// Large-result star and snowflake templates, each restricted to one
// university $U so a response is a few megabytes rather than tens.
var exportTemplates = []struct{ name, body string }{
	{"S2u", "?x a ub:GraduateStudent . ?x ub:name ?n . ?x ub:advisor ?a . ?x ub:takesCourse ?c . ?x ub:memberOf ?d . ?d ub:subOrganizationOf $U"},
	{"S3u", "?x a ub:UndergraduateStudent . ?x ub:name ?n . ?x ub:takesCourse ?c . ?x ub:emailAddress ?e . ?x ub:memberOf ?d . ?d ub:subOrganizationOf $U"},
	{"S6u", "?x a ub:Publication . ?x ub:name ?n . ?x ub:publicationAuthor ?a . ?a ub:worksFor ?d . ?d ub:subOrganizationOf $U"},
	{"S7u", "?x a ub:GraduateStudent . ?x ub:undergraduateDegreeFrom ?u . ?x ub:degreeFrom ?u2 . ?x ub:emailAddress ?e . ?x ub:memberOf ?d . ?d ub:subOrganizationOf $U"},
	{"F4u", "?pub a ub:Publication . ?pub ub:name ?pn . ?pub ub:publicationAuthor ?a . ?a a ub:AssistantProfessor . ?a ub:worksFor ?d . ?d a ub:Department . ?d ub:name ?dn . ?d ub:subOrganizationOf $U"},
	{"F7u", "?g a ub:ResearchGroup . ?g ub:subOrganizationOf ?d . ?d a ub:Department . ?d ub:name ?dn . ?p ub:worksFor ?d . ?p a ub:FullProfessor . ?p ub:researchInterest ?ri . ?d ub:subOrganizationOf $U"},
	{"C5u", "?t a ub:AssociateProfessor . ?t ub:teacherOf ?c . ?c a ub:Course . ?x ub:takesCourse ?c . ?x a ub:UndergraduateStudent . ?x ub:memberOf ?d . ?t ub:worksFor ?d . ?d ub:subOrganizationOf $U"},
}

// Complex and snowflake join templates over the whole dataset, counted.
var countTemplates = []struct{ name, body string }{
	{"C0", "?A a ub:FullProfessor . ?A ub:name ?N . ?A ub:teacherOf ?C . ?C a ub:GraduateCourse . ?X ub:advisor ?A . ?X a ub:GraduateStudent . ?X ub:degreeFrom ?U . ?Y ub:takesCourse ?C . ?Y a ub:GraduateStudent"},
	{"C1", "?p a ub:FullProfessor . ?p ub:worksFor ?d . ?d ub:subOrganizationOf ?u . ?pub ub:publicationAuthor ?p . ?pub a ub:Publication . ?s ub:advisor ?p . ?s a ub:GraduateStudent . ?s ub:takesCourse ?c . ?c a ub:GraduateCourse"},
	{"C2", "?s a ub:GraduateStudent . ?s ub:degreeFrom ?u . ?u a ub:University . ?s ub:memberOf ?d . ?d a ub:Department . ?d ub:subOrganizationOf ?u2 . ?u2 a ub:University . ?s ub:takesCourse ?c"},
	{"C4", "?pub a ub:Publication . ?pub ub:publicationAuthor ?p . ?p a ub:FullProfessor . ?pub ub:publicationAuthor ?s . ?s a ub:GraduateStudent . ?s ub:advisor ?p2 . ?p2 a ub:AssociateProfessor"},
	{"Q2", "?x a ub:GraduateStudent . ?y a ub:University . ?z a ub:Department . ?x ub:memberOf ?z . ?z ub:subOrganizationOf ?y . ?x ub:undergraduateDegreeFrom ?y"},
	{"Q9", "?x a ub:GraduateStudent . ?y a ub:FullProfessor . ?z a ub:GraduateCourse . ?x ub:advisor ?y . ?y ub:teacherOf ?z . ?x ub:takesCourse ?z"},
	{"F1", "?p a ub:FullProfessor . ?p ub:name ?n . ?p ub:emailAddress ?e . ?p ub:teacherOf ?c . ?c a ub:GraduateCourse . ?c ub:name ?cn . ?s ub:takesCourse ?c . ?s a ub:GraduateStudent . ?s ub:name ?sn"},
	{"F5", "?x a ub:UndergraduateStudent . ?x ub:takesCourse ?c . ?c a ub:Course . ?c ub:name ?cn . ?t ub:teacherOf ?c . ?t a ub:Lecturer . ?t ub:name ?tn"},
	{"F8", "?c a ub:GraduateCourse . ?c ub:name ?cn . ?s ub:takesCourse ?c . ?s a ub:GraduateStudent . ?s ub:advisor ?a . ?a a ub:AssociateProfessor . ?a ub:name ?an"},
}

// Point lookups of the churn reader, with how many of each one pass holds.
var churnTemplates = []struct {
	name, body string
	kind       Kind
	perPass    int
}{
	{"Q4", "?x a ub:FullProfessor . ?x ub:worksFor $D . ?x ub:name ?n . ?x ub:emailAddress ?e . ?x ub:telephone ?t", Select, 1200},
	{"Q12", "?x a ub:FullProfessor . ?x ub:headOf ?y . ?y a ub:Department . ?y ub:subOrganizationOf $U", Select, 240},
	{"S4", "$D a ub:Department . $D ub:name ?n . $D ub:subOrganizationOf ?u", Select, 1200},
	{"ASK", "$D ub:subOrganizationOf $U", Ask, 180},
}

// Churn writer settings.
const (
	// The writer's share of a round takes 1.2 s, about as long as the
	// reader's lubm_churn pass. When reads get faster the reader waits for
	// the writer at round ends (diagnostic reader_waited_for_writer_s);
	// that wait is left out of query_qps.
	writerUpdates = 36
	writerRate    = 30.0
	// minUpdates gives the update p95 at least 20 samples above it.
	minUpdates = 400
	// batch is how many churn entities one update inserts (and, once
	// window entities are live, deletes): five triples each. Each update
	// then adds 32 to 64 to the statistics drift, so a run passes the
	// default re-annotation threshold every ~80 updates and the stall of
	// each re-annotation counts in the update latency figures.
	batch = 4
	// window is how many churn entities stay live.
	window = 300
)

// Rounds is how many rounds of WriterUpdates the writer sends: enough
// for its open-loop schedule to span seconds, and for the update p95 to
// have at least 20 samples above it. The count depends on seconds only,
// not on how fast the reads go, so every run sends the same updates and
// passes the re-annotation threshold at the same ones.
func (w *Workload) Rounds(seconds int) int {
	bySchedule := int(math.Ceil(float64(seconds) * w.WriterRate / float64(w.WriterUpdates)))
	bySamples := (minUpdates + w.WriterUpdates - 1) / w.WriterUpdates
	return max(bySchedule, bySamples)
}

// Params are the dataset entities templates are bound to.
type Params struct {
	Universities []string
	Departments  []string
}

// ParamsOf reads the template parameters from the dataset.
func ParamsOf(f *nt.File) (Params, error) {
	p := Params{Universities: f.InstancesOf(UB + "University"), Departments: f.InstancesOf(UB + "Department")}
	if len(p.Universities) == 0 || len(p.Departments) == 0 {
		return p, fmt.Errorf("dataset has %d universities and %d departments", len(p.Universities), len(p.Departments))
	}
	return p, nil
}

// Build returns the named workload with its pass drawn from seed.
func Build(name string, seed int64, p Params) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Name: name, WriterUpdates: writerUpdates, WriterRate: writerRate}
	switch name {
	case "lubm_export":
		for _, t := range exportTemplates {
			for _, u := range p.Universities {
				w.Pass = append(w.Pass, mustQuery(t.name, Select, t.body, map[string]string{"U": u}))
			}
		}
	case "lubm_count":
		for _, t := range countTemplates {
			w.Pass = append(w.Pass, mustQuery(t.name, Count, t.body, nil))
		}
	case "lubm_churn":
		for _, t := range churnTemplates {
			for i := 0; i < t.perPass; i++ {
				args := map[string]string{
					"D": p.Departments[rng.Intn(len(p.Departments))],
					"U": p.Universities[rng.Intn(len(p.Universities))],
				}
				w.Pass = append(w.Pass, mustQuery(t.name, t.kind, t.body, args))
			}
		}
		w.PerRound, w.Durable = true, true
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(Names, ", "))
	}
	rng.Shuffle(len(w.Pass), func(i, j int) { w.Pass[i], w.Pass[j] = w.Pass[j], w.Pass[i] })
	// Instances repeat within a pass; share one *Query per instance.
	byID := map[string]*Query{}
	for i, q := range w.Pass {
		if seen, ok := byID[q.ID]; ok {
			w.Pass[i] = seen
			continue
		}
		byID[q.ID] = q
		w.Distinct = append(w.Distinct, q)
	}
	return w, nil
}

func mustQuery(name string, kind Kind, body string, args map[string]string) *Query {
	q, err := NewQuery(name, kind, body, args)
	if err != nil {
		panic(err) // the templates above are constants
	}
	return q
}

// NewQuery binds a template body — triple patterns separated by " . ",
// terms written ?var, a, ub:name, <iri> or $param — and renders it.
func NewQuery(name string, kind Kind, body string, args map[string]string) (*Query, error) {
	q := &Query{Template: name, Kind: kind}
	var sparqlTerms []string
	id := []string{name}
	seenVar := map[string]bool{}
	for _, tp := range strings.Split(body, " . ") {
		fields := strings.Fields(tp)
		if len(fields) != 3 {
			return nil, fmt.Errorf("template %s: pattern %q has %d terms", name, tp, len(fields))
		}
		var pat [3]ref.Term
		for i, f := range fields {
			var iri string
			switch {
			case strings.HasPrefix(f, "?"):
				v := f[1:]
				pat[i] = ref.Term{Var: v}
				if !seenVar[v] {
					seenVar[v] = true
					q.Vars = append(q.Vars, v)
				}
				sparqlTerms = append(sparqlTerms, f)
				continue
			case f == "a":
				iri = nt.RDFType
				sparqlTerms = append(sparqlTerms, f)
			case strings.HasPrefix(f, "ub:"):
				iri = UB + f[3:]
				sparqlTerms = append(sparqlTerms, f)
			case strings.HasPrefix(f, "$"):
				v, ok := args[f[1:]]
				if !ok {
					return nil, fmt.Errorf("template %s: no value for %s", name, f)
				}
				iri = v
				sparqlTerms = append(sparqlTerms, "<"+v+">")
				id = append(id, v)
			case strings.HasPrefix(f, "<") && strings.HasSuffix(f, ">"):
				iri = f[1 : len(f)-1]
				sparqlTerms = append(sparqlTerms, f)
			default:
				return nil, fmt.Errorf("template %s: bad term %q", name, f)
			}
			pat[i] = ref.Term{Const: nt.IRI(iri)}
		}
		q.BGP = append(q.BGP, ref.Pattern{S: pat[0], P: pat[1], O: pat[2]})
		sparqlTerms = append(sparqlTerms, ".")
	}
	q.ID = strings.Join(id, " ")
	where := strings.Join(sparqlTerms, " ")
	switch kind {
	case Select:
		q.Text = Prefix + "\nSELECT * WHERE { " + where + " }"
	case Count:
		q.Text = Prefix + "\nSELECT (COUNT(*) AS ?n) WHERE { " + where + " }"
	case Ask:
		// One line on purpose: that is the form the server misreads
		// today (README.md, "Fault kept in lubm_churn").
		q.Text = Prefix + " ASK { " + where + " }"
	}
	return q, nil
}

// Update is one churn request and the acknowledgement it must receive.
type Update struct {
	Seq      int
	Text     string
	Inserted int
	Deleted  int
}

// Churn generates the writer's update stream. Every triple is about an
// entity in ChurnNS and links only to ChurnNS entities, so no read's
// answer changes; the entities use the classes and predicates the reads
// scan, so statistics, the overlay and plans do change under them.
type Churn struct {
	tag  string
	next int
}

// NewChurn starts an update stream whose literals depend on seed.
func NewChurn(seed int64) *Churn {
	return &Churn{tag: fmt.Sprintf("%08x", rand.New(rand.NewSource(seed^0x5eed)).Uint32())}
}

// Next returns update number Seq: insert the batch entities
// batch·Seq … batch·(Seq+1)-1 and delete the ones inserted window/batch
// updates earlier.
func (c *Churn) Next() Update {
	k := c.next
	c.next++
	u := Update{Seq: k}
	var del, ins []string
	for n := k*batch - window; n < (k+1)*batch-window; n++ {
		if n >= 0 {
			del = append(del, c.entity(n)...)
		}
	}
	for n := k * batch; n < (k+1)*batch; n++ {
		ins = append(ins, c.entity(n)...)
	}
	var sb strings.Builder
	if len(del) > 0 {
		sb.WriteString("DELETE DATA { " + strings.Join(del, " ") + " } ;\n")
	}
	sb.WriteString("INSERT DATA { " + strings.Join(ins, " ") + " }")
	u.Text, u.Inserted, u.Deleted = sb.String(), len(ins), len(del)
	return u
}

// entity renders churn entity n's five triples: even n is a full
// professor working for the hub, odd n a graduate student member of the
// hub advised by entity n-1.
func (c *Churn) entity(n int) []string {
	s := fmt.Sprintf("<%sg%d>", ChurnNS, n)
	tr := func(p, o string) string { return s + " <" + UB + p + "> " + o + " ." }
	name := fmt.Sprintf(`"churn-%s-%d"`, c.tag, n)
	mail := fmt.Sprintf(`"g%d@%s.bench.example"`, n, c.tag)
	if n%2 == 0 {
		return []string{
			s + " <" + nt.RDFType + "> <" + UB + "FullProfessor> .",
			tr("name", name), tr("emailAddress", mail),
			tr("telephone", fmt.Sprintf(`"+%s-%d"`, c.tag, n)),
			tr("worksFor", "<"+Hub+">"),
		}
	}
	return []string{
		s + " <" + nt.RDFType + "> <" + UB + "GraduateStudent> .",
		tr("name", name), tr("emailAddress", mail),
		tr("memberOf", "<"+Hub+">"),
		tr("advisor", fmt.Sprintf("<%sg%d>", ChurnNS, n-1)),
	}
}

// Live returns how many churn professors and students the updates
// generated so far leave in the dataset.
func (c *Churn) Live() (profs, students int) {
	for n := max(0, batch*c.next-window); n < batch*c.next; n++ {
		if n%2 == 0 {
			profs++
		} else {
			students++
		}
	}
	return profs, students
}

// NamespaceCounts are the reads that check, after the writer stops, that
// every acknowledged update is visible: they count the live churn
// professors and students.
func NamespaceCounts() (profs, students *Query) {
	profs = mustQuery("churn-profs", Count, "?x a ub:FullProfessor . ?x ub:worksFor <"+Hub+"> . ?x ub:name ?m . ?x ub:emailAddress ?e . ?x ub:telephone ?t", nil)
	students = mustQuery("churn-students", Count, "?x a ub:GraduateStudent . ?x ub:memberOf <"+Hub+"> . ?x ub:name ?m . ?x ub:emailAddress ?e . ?x ub:advisor ?a", nil)
	return profs, students
}

// Generate writes the dataset to path with the datagen binary.
func Generate(datagen, path string) error {
	tmp := path + ".tmp"
	cmd := exec.Command(datagen, "-dataset", Dataset, "-scale", fmt.Sprint(Scale), "-seed", fmt.Sprint(DataSeed), "-out", tmp)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("datagen: %v: %s", err, out)
	}
	return os.Rename(tmp, path)
}

// FingerprintLine is the line README.md records for the dataset.
func FingerprintLine(f *nt.File) string {
	return fmt.Sprintf("%s scale=%d seed=%d %s", Dataset, Scale, DataSeed, f.Fingerprint())
}
