package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"punt"
	"punt/gates"
	"punt/internal/boolcover"
)

// The oracles below know the circuits the generators describe; none of them
// asks the synthesizer what the answer should be.

// checkPipelineGates checks that every gate of a Muller-pipeline circuit
// (signals <prefix><k>, stages 1..n between two environment signals) is the
// C-element of its predecessor and its inverted successor: by truth table
// over exactly that support, with the gate's own output as the state input.
// It returns the number of gates checked.
func checkPipelineGates(im *gates.Implementation) (int, error) {
	index := map[string]int{}
	for i, n := range im.SignalNames {
		index[n] = i
	}
	for _, g := range im.Gates {
		if g.Cover == nil {
			return 0, fmt.Errorf("gate %s: no complex-gate cover", g.Signal)
		}
		prefix, k, err := splitSignal(g.Signal)
		if err != nil {
			return 0, err
		}
		pred, okP := index[prefix+strconv.Itoa(k-1)]
		succ, okS := index[prefix+strconv.Itoa(k+1)]
		self := index[g.Signal]
		if !okP || !okS {
			return 0, fmt.Errorf("gate %s: no neighbours in the signal list", g.Signal)
		}
		support := map[int]bool{pred: true, succ: true, self: true}
		for _, cube := range g.Cover.Cubes() {
			for v := 0; v < cube.Len(); v++ {
				if cube.Get(v) != boolcover.Dash && !support[v] {
					return 0, fmt.Errorf("gate %s depends on %s", g.Signal, im.SignalNames[v])
				}
			}
		}
		for row := 0; row < 8; row++ {
			a, b, c := row&1 == 1, row&2 == 2, row&4 == 4
			want := (a && !b) || (a && c) || (!b && c) // C(a, b') with state c
			got := evalCover(g.Cover, map[int]bool{pred: a, succ: b, self: c})
			if got != want {
				return 0, fmt.Errorf("gate %s: pred=%t succ=%t self=%t gives %t, want %t", g.Signal, a, b, c, got, want)
			}
		}
	}
	return len(im.Gates), nil
}

// evalCover evaluates a sum of products at an assignment of its support
// (variables outside the assignment must be don't-cares).
func evalCover(c *boolcover.Cover, at map[int]bool) bool {
	for _, cube := range c.Cubes() {
		sat := true
		for v := 0; v < cube.Len() && sat; v++ {
			switch cube.Get(v) {
			case boolcover.One:
				sat = at[v]
			case boolcover.Zero:
				sat = !at[v]
			}
		}
		if sat {
			return true
		}
	}
	return false
}

// splitSignal splits "f12" into ("f", 12).
func splitSignal(name string) (string, int, error) {
	i := strings.IndexAny(name, "0123456789")
	if i <= 0 {
		return "", 0, fmt.Errorf("signal %q is not a pipeline stage", name)
	}
	k, err := strconv.Atoi(name[i:])
	if err != nil {
		return "", 0, fmt.Errorf("signal %q is not a pipeline stage", name)
	}
	return name[:i], k, nil
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// pipelineMutant returns a copy of the circuit in which the middle stage of
// the first pipeline has its inverted-successor literal flipped, so the stage
// waits for its successor to rise instead of to fall.
func pipelineMutant(im *gates.Implementation) (*gates.Implementation, string, error) {
	if len(im.Gates) == 0 {
		return nil, "", errors.New("mutant: empty circuit")
	}
	target := im.Gates[len(im.Gates)/4]
	prefix, k, err := splitSignal(target.Signal)
	if err != nil {
		return nil, "", err
	}
	succ := -1
	for i, n := range im.SignalNames {
		if n == prefix+strconv.Itoa(k+1) {
			succ = i
		}
	}
	out := &gates.Implementation{Name: im.Name, SignalNames: im.SignalNames}
	flipped := false
	for _, g := range im.Gates {
		if g.Signal == target.Signal {
			cover := boolcover.NewCover(g.Cover.Vars())
			for _, cube := range g.Cover.Cubes() {
				c := cube.Clone()
				switch c.Get(succ) {
				case boolcover.Zero:
					c.Set(succ, boolcover.One)
					flipped = true
				case boolcover.One:
					c.Set(succ, boolcover.Zero)
					flipped = true
				}
				cover.Add(c)
			}
			g.Cover = cover
		}
		out.Gates = append(out.Gates, g)
	}
	if !flipped {
		return nil, "", fmt.Errorf("mutant: gate %s has no successor literal", target.Signal)
	}
	return out, target.Signal, nil
}

// rejectsMutant checks that closed-loop verification rejects the mutant with
// a conformance, hazard or liveness diagnostic.
func rejectsMutant(verr error) error {
	var d *punt.Diagnostic
	if verr == nil {
		return errors.New("mutant verified")
	}
	if !errors.As(verr, &d) {
		return fmt.Errorf("mutant rejected without a diagnostic: %v", verr)
	}
	switch d.Kind {
	case punt.KindConformance, punt.KindHazard, punt.KindLiveness:
		return nil
	}
	return fmt.Errorf("mutant rejected with %v, want a conformance, hazard or liveness violation", d.Kind)
}
