package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ictm/internal/tm"
)

// ipfTol is the pipeline's default IPF tolerance (relative row error,
// denominators floored at 1): converged bins honour the measured
// marginals within it.
const ipfTol = 1e-9

// checker records every output check a run makes. Any failure makes
// the run incorrect and the command exit non-zero.
type checker struct {
	passed   map[string]int
	failed   map[string]int
	messages []string
}

func newChecker() *checker {
	return &checker{passed: map[string]int{}, failed: map[string]int{}}
}

func (c *checker) expect(name string, ok bool, format string, args ...any) {
	if ok {
		c.passed[name]++
		return
	}
	c.failed[name]++
	if len(c.messages) < 20 {
		c.messages = append(c.messages, name+": "+fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool { return len(c.failed) == 0 }

func (c *checker) summary() string {
	names := map[string]bool{}
	for k := range c.passed {
		names[k] = true
	}
	for k := range c.failed {
		names[k] = true
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "check %-28s passed %6d failed %d\n", k, c.passed[k], c.failed[k])
	}
	for _, m := range c.messages {
		fmt.Fprintf(&b, "FAIL %s\n", m)
	}
	return b.String()
}

// finiteNonNegative reports whether every entry is finite and >= 0.
func finiteNonNegative(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return false
		}
	}
	return true
}

// marginalError is the worst relative mismatch between the row (column)
// sums of the n×n row-major estimate and the observed ingress (egress)
// totals, with IPF's denominator max(target, 1). The sums are taken
// here, not by the program.
func marginalError(v []float64, n int, ing, eg []float64) float64 {
	worst := 0.0
	for i := 0; i < n; i++ {
		var row, col float64
		for j := 0; j < n; j++ {
			row += v[i*n+j]
			col += v[j*n+i]
		}
		worst = math.Max(worst, math.Abs(row-ing[i])/math.Max(ing[i], 1))
		worst = math.Max(worst, math.Abs(col-eg[i])/math.Max(eg[i], 1))
	}
	return worst
}

// relL2 is the paper's eq.-6 error ‖x̂ − x‖₂ / ‖x‖₂, computed here.
func relL2(truth *tm.TrafficMatrix, est []float64) float64 {
	var num, den float64
	for i, t := range truth.Vec() {
		d := est[i] - t
		num += d * d
		den += t * t
	}
	return math.Sqrt(num / den)
}
