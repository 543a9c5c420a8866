package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"punt"
	"punt/internal/benchgen"
	"punt/internal/stg"
)

// class is one input of a workload's class list; a round runs each class
// once, in a seeded order.
type class struct {
	name string
	text string
	// outputs is the number of gates the generated pipeline circuit has.
	outputs int
	// eqnSHA256 pins the synthesised equations at the commit that defined
	// the benchmark: the output must stay byte-identical.
	eqnSHA256 string
}

// pipelineClass describes a circuit of pipelines, each with an input and an
// output environment signal around its gates.
func pipelineClass(name string, g *stg.STG, pipelines int, eqn string) class {
	return class{name: name, text: stg.Format(g), outputs: g.NumSignals() - 2*pipelines, eqnSHA256: eqn}
}

// roundOrder returns rounds seeded permutations of n classes, flattened.
func roundOrder(rng *rand.Rand, rounds, n int) []int {
	seq := make([]int, 0, rounds*n)
	for r := 0; r < rounds; r++ {
		seq = append(seq, rng.Perm(n)...)
	}
	return seq
}

// classDigest hashes an op sequence over a class list.
func classDigest(classes []class, seq []int) string {
	h := sha256.New()
	for _, c := range seq {
		fmt.Fprintf(h, "%s\n%s\n", classes[c].name, sha256Hex(classes[c].text))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- synth: parse and synthesise pipelines with the facade defaults ---

type synthEnv struct {
	classes []class
	seq     []int
	// warm holds the warm-up round's circuits, one per class, for the
	// mutant check.
	warm []*punt.Result
}

// pipelineEqnSHA256 pins the equations of the pipeline ladder by signal count.
var pipelineEqnSHA256 = map[int]string{
	30: "8dc0e3947f7063a8b1ec6f7d333c073e1247e6b99689fe2ac9128269acc43fd3",
	32: "0f9e60a76c5b0c67ac18ea1266b01217c9aa59fd21caef9b2193273e332823a7",
	34: "a80aa265aae153cc45252dfe77d869e60323c2ff09e6ec60dd7b5b92742133ab",
	36: "ea8cb54720d108c86cbc9e82b270173370f6cfa588a2c623469155572609d690",
	38: "22cb9dcd988950e777d12dc207e3212c3c3739abc3e4f71845670c6cf1070b6e",
	40: "1fad6258cb14c0667d249426536033ba2c625a7b29bb513d1d497f198160f234",
	42: "f3a09bbe847b82e9577189b6938bd61faa5e6e66bacb1c7c86a7970ecf1eb7d1",
	44: "e1d957ad64c38a9445030e00bb6d80721ae7d8a49895509629c58031ca45af66",
	46: "6b7357bf1ca18f94a10178ac9ffdc4b6b3a7f334f876299e37f1e378c05d6ffb",
	48: "2ecc66f905d18ca15f802073a778f9d4ff051dc485eeb1540963012d7c7529f2",
	50: "252d8c9ce25884381271328df8ceb77036817befb24df99df1000649844bdc94",
}

// synthClasses is the counterflow pipeline and a ladder of Muller pipelines
// of 30 to 50 signals.  Neighbouring rungs differ in cost by 1.1–1.4×, less
// than the 1.7× between the host's fast and slow modes, so the latencies of
// the two modes interleave and the p50 and tail move smoothly with the share
// of a run spent in each; with a few well-separated classes they flipped
// between the two modes of one class.
func synthClasses() []class {
	classes := []class{pipelineClass("counterflow", benchgen.CounterflowPipeline(), 2,
		"dd1b74ef001bb4c343c4dcf6465d5d99a66517cb6d5e820a56f3519e9dfdf64b")}
	for n := 30; n <= 50; n += 2 {
		classes = append(classes, pipelineClass(fmt.Sprintf("pipeline-%d", n),
			benchgen.MullerPipelineWithSignals(n), 1, pipelineEqnSHA256[n]))
	}
	return classes
}

func setupSynth(seed int64, rounds int, _ string) (env, error) {
	e := &synthEnv{classes: synthClasses()}
	e.seq = roundOrder(rand.New(rand.NewSource(seed)), rounds, len(e.classes))
	// One untimed warm-up round, checked like a timed one.
	for i := range e.classes {
		o := e.run(i)
		if ok, _ := e.checkClass(i, o); !ok {
			return nil, fmt.Errorf("warm-up %s failed the oracle (error: %v)", e.classes[i].name, o.err)
		}
		e.warm = append(e.warm, o.val.(*punt.Result))
	}
	return e, nil
}

func (e *synthEnv) ops() int           { return len(e.seq) }
func (e *synthEnv) class(i int) string { return e.classes[e.seq[i]].name }
func (e *synthEnv) digest() string     { return classDigest(e.classes, e.seq) }
func (e *synthEnv) close()             {}

// do runs op i; the timed window carries no spans on this workload.
func (e *synthEnv) do(i int, _ *tracer) outcome { return e.run(e.seq[i]) }

func (e *synthEnv) run(c int) outcome {
	start := time.Now()
	spec, err := punt.Parse(e.classes[c].text)
	var res *punt.Result
	if err == nil {
		res, err = punt.New().Synthesize(context.Background(), spec)
	}
	return outcome{lat: time.Since(start), err: err, val: res}
}

func (e *synthEnv) check(i int, o outcome) (bool, int, error) {
	ok, lits := e.checkClass(e.seq[i], o)
	return ok, lits, nil
}

// checkClass accepts a circuit whose every gate is the pipeline's C-element,
// with six literals a gate and the pinned equations.
func (e *synthEnv) checkClass(c int, o outcome) (bool, int) {
	if o.err != nil {
		return false, 0
	}
	res := o.val.(*punt.Result)
	cl := e.classes[c]
	n, err := checkPipelineGates(res.Impl)
	lits := res.Literals()
	ok := err == nil && n == cl.outputs && lits == 6*cl.outputs && sha256Hex(res.Eqn()) == cl.eqnSHA256
	return ok, lits
}

// finish builds one known-bad mutant per class and requires closed-loop
// verification to reject each with a conformance, hazard or liveness
// diagnostic.
func (e *synthEnv) finish(map[string]any) error {
	for c, res := range e.warm {
		im, gate, err := pipelineMutant(res.Impl)
		if err != nil {
			return err
		}
		mutant := *res
		mutant.Impl = im
		_, verr := punt.Verify(context.Background(), res.Spec, &mutant)
		if err := rejectsMutant(verr); err != nil {
			return fmt.Errorf("%s mutant of gate %s: %w", e.classes[c].name, gate, err)
		}
	}
	return nil
}

func (e *synthEnv) layers(tr *tracer, ops int) error {
	for i, c := range e.seq[:ops] {
		in := layerInput{op: i, text: e.classes[c].text}
		if err := layerPass(context.Background(), tr, nil, in); err != nil {
			return err
		}
	}
	return nil
}
