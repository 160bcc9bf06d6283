package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Independent models of the corpus programs' printed output. None of
// them reads a stored copy of the compiler's output: each recomputes
// the program's semantics in Go from the program's own inputs.

// lcg is the corpus programs' nextRandom.
func lcg(seed int64) int64 {
	seed = (seed*1103515245 + 12345) % 2147483647
	if seed < 0 {
		seed = -seed
	}
	return seed
}

// expectGraph models the §2 traversal: every node reachable from the
// root is marked exactly once and then visits its two children with
// its own value, so a node's sum is the total value of its marked
// in-neighbours, whatever the visit order.
func expectGraph(n, seed int) string {
	left, right := make([]int, n), make([]int, n)
	s := int64(seed)
	for i := 0; i < n; i++ {
		s = lcg(s)
		left[i] = int(s % int64(n))
		s = lcg(s)
		right[i] = int(s % int64(n))
	}
	marked := make([]bool, n)
	sum := make([]int64, n)
	stack := []int{0}
	marked[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range []int{left[i], right[i]} {
			sum[j] += int64(i + 1)
			if !marked[j] {
				marked[j] = true
				stack = append(stack, j)
			}
		}
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d %s\n", sum[i], boolWord(marked[i]))
	}
	return b.String()
}

func boolWord(v bool) string {
	if v {
		return "TRUE"
	}
	return "FALSE"
}

// expectCondHash models the hash table: mode 0 accumulates (the order
// of commuting updates cannot matter), any other mode overwrites in
// the serial order the guard-false path keeps.
func expectCondHash(mode, rounds int) string {
	const nbucket = 8
	var count, touched [nbucket]int64
	update := func(i int, v int64) {
		if mode == 0 {
			count[i] += v
		} else {
			count[i] = v
		}
		touched[i]++
	}
	for r := int64(0); r < int64(rounds); r++ {
		for i := 0; i < nbucket; i++ {
			update(i, r*7+int64(i)*3+1)
		}
		update(0, r+1)
		update(0, r*2+1)
	}
	var b strings.Builder
	var checksum int64
	for i := 0; i < nbucket; i++ {
		checksum = checksum*31 + count[i]*2 + touched[i]
		fmt.Fprintf(&b, "%d %d\n", count[i], touched[i])
	}
	fmt.Fprintf(&b, "%d\n", checksum)
	return b.String()
}

// expectSpecDisjoint: fill sets cell i to 3i+1; report prints the sum.
func expectSpecDisjoint(cells int) string {
	var sum int64
	for i := int64(0); i < int64(cells); i++ {
		sum += 3*i + 1
	}
	return fmt.Sprintf("%d\n", sum)
}

// expectSpecConflict: each run marks 1 then 2, so last is 2 and total
// grows by 3 per round.
func expectSpecConflict(rounds int) string {
	return fmt.Sprintf("2 %d\n", 3*rounds)
}

// parseFloats splits printed output into its numbers, line by line.
func parseFloats(out string) ([][]float64, error) {
	var rows [][]float64
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		var row []float64
		for _, f := range strings.Fields(line) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("output line %q: %v", line, err)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// checkBH: the tree root holds the total mass, 1.0 by construction.
func checkBH(out string) error {
	rows, err := parseFloats(out)
	if err != nil {
		return err
	}
	if len(rows) != 3 || len(rows[0]) != 1 || len(rows[1]) != 3 || len(rows[2]) != 3 {
		return fmt.Errorf("barnes-hut: unexpected output shape %q", out)
	}
	if m := rows[0][0]; math.Abs(m-1.0) > 1e-9 {
		return fmt.Errorf("barnes-hut: root mass %v, want 1.0", m)
	}
	return nil
}

// checkWater: the pairwise forces are antisymmetric, so total momentum
// keeps its initial value, which is recomputed here from the seed by
// replaying the program's initialisation. The tolerance is the
// repository's documented 1e-9 of the momentum scale n·18·0.05.
func checkWater(out string, mols, seed int) error {
	rows, err := parseFloats(out)
	if err != nil {
		return err
	}
	if len(rows) != 3 || len(rows[0]) != 3 {
		return fmt.Errorf("water: unexpected output shape %q", out)
	}
	s := int64(seed)
	coord := func() float64 {
		s = lcg(s)
		return float64(s%1000000) * 1.0 / 1000000.0
	}
	var p [3]float64
	for i := 0; i < mols; i++ {
		coord()
		coord()
		coord()
		for k := 0; k < 3; k++ {
			p[k] += 18.0 * ((coord() - 0.5) * 0.1)
		}
	}
	scale := float64(mols) * 18.0 * 0.05
	for k := 0; k < 3; k++ {
		if math.Abs(rows[0][k]-p[k]) > 1e-9*scale {
			return fmt.Errorf("water: momentum[%d] %v, initial %v", k, rows[0][k], p[k])
		}
	}
	return nil
}

// sameOutput compares a run's printed output with the serial walker's:
// byte-equal when tol is 0, else number by number within tol relative
// to the larger magnitude (float reassociation in parallel
// reductions).
func sameOutput(got, want string, tol float64) error {
	if got == want {
		return nil
	}
	if tol == 0 {
		return fmt.Errorf("output differs from the serial walker's:\n got %.200q\nwant %.200q", got, want)
	}
	g, err := parseFloats(got)
	if err != nil {
		return err
	}
	w, err := parseFloats(want)
	if err != nil {
		return err
	}
	if len(g) != len(w) {
		return fmt.Errorf("output has %d lines, serial walker %d", len(g), len(w))
	}
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("output line %d has %d fields, serial walker %d", i, len(g[i]), len(w[i]))
		}
		for j := range g[i] {
			a, b := g[i][j], w[i][j]
			if math.Abs(a-b) > tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b))) {
				return fmt.Errorf("output line %d field %d: %v, serial walker %v", i, j, a, b)
			}
		}
	}
	return nil
}

// checkOutput applies every output check the program has: the
// independent model, the physical invariants, and equality with the
// serial walker's output.
func (p *program) checkOutput(out, serial string) error {
	if p.expect != nil {
		if want := p.expect(); out != want {
			return fmt.Errorf("%s: output differs from the model:\n got %.200q\nwant %.200q", p.key, out, want)
		}
	}
	if p.check != nil {
		if err := p.check(out); err != nil {
			return err
		}
	}
	if serial != "" {
		if err := sameOutput(out, serial, p.floatTol); err != nil {
			return fmt.Errorf("%s: %v", p.key, err)
		}
	}
	return nil
}

// checkCounters compares exact runtime counters with the program's
// shape-derived expectations.
func (p *program) checkCounters(got map[string]int64) error {
	for k, want := range p.counters {
		if got[k] != want {
			return fmt.Errorf("%s: %s = %d, want %d", p.key, k, got[k], want)
		}
	}
	return nil
}

// outcome names an analysis report's tier the way the verdict table
// does.
func outcome(parallel, conditional, speculative bool) string {
	switch {
	case parallel:
		return "parallel"
	case conditional:
		return "guarded"
	case speculative:
		return "speculative"
	}
	return "serial"
}

// checkVerdicts compares reported outcomes (keyed by "class::method"
// in the variant's names) with the program's verdict table.
func (p *program) checkVerdicts(got map[string]string, tag string) error {
	for _, v := range p.verdicts {
		name := renameIdent(v.class, tag) + "::" + renameIdent(v.method, tag)
		o, ok := got[name]
		if !ok {
			return fmt.Errorf("%s: no report for %s", p.key, name)
		}
		if o != v.want {
			return fmt.Errorf("%s: %s is %s, want %s", p.key, name, o, v.want)
		}
	}
	return nil
}
