package main

import (
	"testing"
)

// exactCounts are the per-layer counters that must repeat exactly across
// runs of one seed: they count work, and every run does the same work.
var exactCounts = []string{
	"unfolding.events", "unfolding.cutoffs", "core.terms_refined",
	"verify.composed_states", "verify.composed_edges", "verify.clusters",
	"server.warm_hits", "server.syntheses", "server.joined", "server.rejected", "server.errors",
	"resolve.candidates_tried", "resolve.accept_frac", "resolve.states_reused", "resolve.full_rebuilds",
}

// TestSequenceIsSeeded checks that a seed yields a byte-identical op
// sequence and that another seed yields another one.
func TestSequenceIsSeeded(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			digest := func(seed int64) string {
				e, err := w.setup(seed, 8, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer e.close()
				return e.digest()
			}
			a, b, c := digest(7), digest(7), digest(8)
			if a != b {
				t.Errorf("seed 7 gave two sequences: %s, %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 7 and 8 gave the same sequence %s", a)
			}
		})
	}
}

// TestExactWork runs every workload twice on one seed, untraced and traced,
// and requires every output to pass its oracle, the mean literal count and
// every work counter to repeat exactly, and the server never to join or
// reject a request.
func TestExactWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var lits [2]float64
			var counts [2]map[string]metric
			for k := 0; k < 2; k++ {
				e, err := w.setup(3, 2, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				win := replay(e, nil, w.roundOps)
				v, err := judge(e, win)
				e.close()
				if err != nil || v.failed > 0 {
					t.Fatalf("run %d: %d of %d ops failed the oracle (%v)", k, v.failed, len(win.outcomes), err)
				}
				lits[k] = v.literals
				res, err := runTraced(&w, 3, 2, t.TempDir(), map[string]any{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("traced run %d: incorrect: %+v", k, res)
				}
				counts[k] = res.Metrics
			}
			if lits[0] != lits[1] {
				t.Errorf("literals per op: %v then %v", lits[0], lits[1])
			}
			for _, name := range exactCounts {
				if a, b := counts[0][name].Value, counts[1][name].Value; a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
			for _, name := range []string{"server.joined", "server.rejected"} {
				if v := counts[0][name].Value; v != 0 {
					t.Errorf("%s = %v, want 0", name, v)
				}
			}
		})
	}
}
