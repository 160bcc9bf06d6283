package main

import (
	"embed"
	"fmt"
	"math"
	"strings"
)

// The corpus sources are copies of the programs in the repository's
// evaluation corpus (Barnes-Hut, Water, the §2 graph, the
// conditional-commutativity hash table and the two speculation
// demonstrators), kept here so the benchmark's inputs do not change
// when the repository's own examples do. Each main below ends by
// printing a digest of the final state, so comparing two runs' output
// compares their final states.
//
//go:embed corpus/*.mc
var corpusFS embed.FS

func corpusBase(name string) string {
	b, err := corpusFS.ReadFile("corpus/" + name + ".mc")
	if err != nil {
		panic(err) // embedded at build time; a missing file is a build bug
	}
	return string(b)
}

// program is one corpus program at a fixed size: its source and what
// the benchmark knows about it independently of the compiler.
type program struct {
	key    string // metric name component, e.g. "bh", "condhash_guard"
	name   string // file name handed to the compiler
	source string

	// Run configuration.
	conditional bool
	speculate   string // "", "auto", "force"

	// expect computes the program's printed output independently of
	// the compiler (nil: no independent model; serial equivalence and
	// the physical invariants check it instead).
	expect func() string
	// check applies physical invariants to the printed output.
	check func(out string) error
	// floatTol is the relative tolerance for comparing a parallel
	// run's printed floats with the serial walker's (0: bit-exact).
	floatTol float64
	// counters are exact rt.Stats expectations for one parallel run,
	// derived from the program's shape.
	counters map[string]int64
	// verdicts is the hand-written table of analysis outcomes.
	verdicts []verdict
}

// verdict is one expected analysis outcome for a method, named by its
// original (un-renamed) class and method identifiers.
type verdict struct {
	class, method string
	want          string // "parallel", "guarded", "speculative", "serial"
}

const bhBodiesInterp, bhStepsInterp = 256, 1
const waterMolsInterp, waterStepsInterp = 125, 1
const graphNodes = 1024
const condRounds = 64
const specCells, specRounds = 64, 8
const conflictRounds = 64

// bhVerdicts: the force-computation extent of Figure 4 and the two
// per-body update loops are parallel (§6.2, Table 2); tree construction
// and center-of-mass computation stay serial.
var bhVerdicts = []verdict{
	{"nbody", "computeForces", "parallel"},
	{"nbody", "advanceVelocities", "parallel"},
	{"nbody", "advancePositions", "parallel"},
	{"body", "walksub", "parallel"},
	{"nbody", "buildTree", "serial"},
	{"nbody", "computeCOM", "serial"},
}

// waterVerdicts: the five Water extents of Table 8 are parallel.
var waterVerdicts = []verdict{
	{"water", "predictAll", "parallel"},
	{"water", "loadAll", "parallel"},
	{"water", "interf", "parallel"},
	{"water", "poteng", "parallel"},
	{"water", "momentaAll", "parallel"},
}

// graphVerdicts: the §2 traversal's visit operations commute.
var graphVerdicts = []verdict{
	{"builder", "traverse", "parallel"},
	{"graph", "visit", "parallel"},
}

// condVerdicts: the (update, update) pair fails the Figure-11 test but
// synthesizes a residual over the extent constant table.mode, so
// ingest is conditionally eligible.
var condVerdicts = []verdict{
	{"table", "ingest", "guarded"},
	{"table", "report", "serial"},
}

var specDisjointVerdicts = []verdict{{"table", "fill", "speculative"}}
var specConflictVerdicts = []verdict{{"driver", "run", "speculative"}}
var accVerdicts = []verdict{{"driver", "run", "speculative"}}

func bhMain(bodies, steps, seed int) string {
	return fmt.Sprintf(`
void main() {
  body *b;
  double w, p0, p1, p2, v0, v1, v2;
  Parms.tolSq = 1.0;
  Parms.eps = 0.05;
  Parms.epsSq = 0.0025;
  Parms.dt = 0.025;
  Nbody.seed = %d;
  Nbody.size = 4.0;
  Nbody.init(%d);
  for (int t = 0; t < %d; t++)
    Nbody.step();
  p0 = 0.0; p1 = 0.0; p2 = 0.0; v0 = 0.0; v1 = 0.0; v2 = 0.0;
  for (int i = 0; i < Nbody.numbodies; i++) {
    b = Nbody.bodies[i];
    w = i + 1;
    p0 = p0 + w * b->pos.val[0];
    p1 = p1 + w * b->pos.val[1];
    p2 = p2 + w * b->pos.val[2];
    v0 = v0 + w * b->vel.val[0];
    v1 = v1 + w * b->vel.val[1];
    v2 = v2 + w * b->vel.val[2];
  }
  print(Nbody.BH_root->mass);
  print(p0, p1, p2);
  print(v0, v1, v2);
}
`, seed, bodies, steps)
}

func waterMain(mols, steps, seed int) string {
	box := 8.0 * math.Cbrt(float64(mols)/125.0)
	return fmt.Sprintf(`
void main() {
  h2o *m;
  double w, px, py, pz, q0, q1, q2;
  WParms.dt = 0.002;
  WParms.boxl = %s;
  WParms.cutsq = 9.0;
  Water.seed = %d;
  Water.init(%d);
  for (int t = 0; t < %d; t++)
    Water.step();
  px = 0.0; py = 0.0; pz = 0.0; q0 = 0.0; q1 = 0.0; q2 = 0.0;
  for (int i = 0; i < Water.nmol; i++) {
    m = Water.mols[i];
    w = i + 1;
    px = px + m->mass * m->vx;
    py = py + m->mass * m->vy;
    pz = pz + m->mass * m->vz;
    q0 = q0 + w * m->px;
    q1 = q1 + w * m->py;
    q2 = q2 + w * m->pz;
  }
  print(px, py, pz);
  print(q0, q1, q2);
  print(Sums.pot, Sums.kin);
}
`, fmtFloat(box), seed, mols, steps)
}

func fmtFloat(f float64) string {
	s := fmt.Sprintf("%.17g", f)
	if !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s
}

func graphMain(n, seed int) string {
	return fmt.Sprintf(`
void main() {
  Builder.seed = %d;
  Builder.build(%d);
  Builder.traverse();
  for (int i = 0; i < Builder.numnodes; i++)
    print(Builder.nodes[i]->sum, Builder.nodes[i]->mark);
}
`, seed, n)
}

func condMain(mode, rounds int) string {
	return fmt.Sprintf(`
void main() {
  int r;
  H.setup(%d);
  for (r = 0; r < %d; r += 1) {
    H.ingest(r);
  }
  H.report();
}
`, mode, rounds)
}

func specDisjointSource(cells, rounds int) string {
	base := strings.Replace(corpusBase("specdisjoint"), "const int N = 16;", fmt.Sprintf("const int N = %d;", cells), 1)
	return strings.Replace(base, "  T.fill();\n", fmt.Sprintf("  for (int r = 0; r < %d; r++)\n    T.fill();\n", rounds), 1)
}

func specConflictSource(rounds int) string {
	return strings.Replace(corpusBase("specconflict"), "  D.run();\n", fmt.Sprintf("  for (int r = 0; r < %d; r++)\n    D.run();\n", rounds), 1)
}

// accSource renders the nested-branch probe from ROADMAP: acc::add
// repeats a pair of data-dependent branch updates k times, which makes
// the symbolic pair test's expressions grow exponentially in k.
func accSource(k int) string {
	var body strings.Builder
	for i := 0; i < k; i++ {
		body.WriteString("  if (x > p) { x = x * p + y; } else { x = x + p * y; }\n")
		body.WriteString("  if (y > x) { y = y + x; } else { y = y * x + p; }\n")
	}
	return `
class acc {
public:
  int x;
  int y;
  void add(int p);
};

class driver {
public:
  acc *a;
  void init();
  void run(int n);
};

// Global Variables
driver D;

void acc::add(int p) {
` + body.String() + `}

void driver::init() {
  a = new acc;
}

void driver::run(int n) {
  int i;
  for (i = 0; i < n; i += 1) {
    a->add(i);
  }
}

void main() {
  D.init();
  D.run(16);
  print(D.a->x, D.a->y);
}
`
}

// The programs' own random seeds (Barnes-Hut bodies, Water molecules,
// graph wiring) are the repository's defaults and do not follow the
// benchmark seed: a different body distribution or graph changes the
// work an op does, which would show up as spread between seeds rather
// than as a change in the program. The benchmark seed drives the
// identifier renaming and serve's session stream.
const bhSeed, waterSeed, graphSeed = 12345, 20231, 12345

// runPrograms is the run-interp program set: proven coarse (Barnes-Hut,
// Water), proven fine-grained (the recursive graph traversal), guarded
// (condhash with its guard true and false) and speculative (a
// commit-heavy disjoint fill and the abort-heavy conflict).
func runPrograms() []*program {
	return []*program{
		bhProgram(bhBodiesInterp, bhStepsInterp, bhSeed),
		waterProgram(waterMolsInterp, waterStepsInterp, waterSeed),
		graphProgram(graphNodes, graphSeed),
		condProgram(0, condRounds),
		condProgram(1, condRounds),
		specDisjointProgram(specCells, specRounds),
		specConflictProgram(conflictRounds),
	}
}

func bhProgram(bodies, steps, seed int) *program {
	return &program{
		key: "bh", name: "barneshut.mc",
		source:   corpusBase("barneshut") + bhMain(bodies, steps, seed),
		check:    checkBH,
		verdicts: bhVerdicts,
	}
}

func waterProgram(mols, steps, seed int) *program {
	return &program{
		key: "water", name: "water.mc",
		source:   corpusBase("water") + waterMain(mols, steps, seed),
		check:    func(out string) error { return checkWater(out, mols, seed) },
		floatTol: 1e-9,
		verdicts: waterVerdicts,
	}
}

func graphProgram(n, seed int) *program {
	return &program{
		key: "graph", name: "graph.mc",
		source:   corpusBase("graph") + graphMain(n, seed),
		expect:   func() string { return expectGraph(n, seed) },
		verdicts: graphVerdicts,
	}
}

func condProgram(mode, rounds int) *program {
	p := &program{
		key: "condhash_guard", name: "condhash.mc",
		source:      corpusBase("condhash") + condMain(mode, rounds),
		conditional: true,
		expect:      func() string { return expectCondHash(mode, rounds) },
		counters:    map[string]int64{"guard_parallel": int64(rounds), "guard_serial": 0},
		verdicts:    condVerdicts,
	}
	if mode != 0 {
		p.key = "condhash_fallback"
		p.counters = map[string]int64{"guard_parallel": 0, "guard_serial": int64(rounds)}
	}
	return p
}

func specDisjointProgram(cells, rounds int) *program {
	return &program{
		key: "spec_commit", name: "specdisjoint.mc",
		source:    specDisjointSource(cells, rounds),
		speculate: "force",
		expect:    func() string { return expectSpecDisjoint(cells) },
		counters:  map[string]int64{"spec_commits": int64(rounds), "spec_aborts": 0},
		verdicts:  specDisjointVerdicts,
	}
}

func specConflictProgram(rounds int) *program {
	return &program{
		key: "spec_abort", name: "specconflict.mc",
		source:    specConflictSource(rounds),
		speculate: "force",
		expect:    func() string { return expectSpecConflict(rounds) },
		counters:  map[string]int64{"spec_commits": 0, "spec_aborts": int64(rounds)},
		verdicts:  specConflictVerdicts,
	}
}

func accProgram(k int) *program {
	return &program{
		key: fmt.Sprintf("acc%d", k), name: fmt.Sprintf("acc%d.mc", k),
		source:   accSource(k),
		verdicts: accVerdicts,
	}
}

// compilePrograms is the compile corpus: every run program plus the
// nested-branch probe at k=1 and k=2. The k=3 probe (seconds and
// gigabytes of analysis) stays out until analysis is bounded.
func compilePrograms() []*program {
	return append(runPrograms(), accProgram(1), accProgram(2))
}
