package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the two-set check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// twoset reruns one workload as two interleaved sets of runs (A1 B1 A2
// B2 ...), each run its own process with its own seed, and prints each
// end-to-end metric's per-set median and quartiles beside its bound in
// BENCHMARK.json: the spread (quartile distance over median) of each
// set, and how far set B's median is from set A's in the worse
// direction.
func twoset(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("icbench twoset", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to rerun")
	runs := fs.Int("runs", 5, "runs per set")
	seed := fs.Int64("seed", 1, "seed of the first run; run i of both sets uses seed+i")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := workloadByName(*workload); err != nil {
		return err
	}
	if *runs < 2 {
		return fmt.Errorf("--runs must be at least 2")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sets := [2][]output{}
	for i := 0; i < *runs; i++ {
		for s := 0; s < 2; s++ {
			sd := *seed + int64(i)
			out, err := runOnce(self, *workload, sd, bf.RunSeconds)
			if err != nil {
				return fmt.Errorf("set %c run %d (seed %d): %w", 'A'+s, i+1, sd, err)
			}
			sets[s] = append(sets[s], out)
			fmt.Fprintf(stdout, "set %c run %d seed %d: correct=%v attempted=%d failed=%d\n", 'A'+s, i+1, sd, out.Correct, out.Attempted, out.Failed)
		}
	}
	ok := true
	fmt.Fprintf(stdout, "%-24s %-34s %-34s %9s %7s\n", "metric", "set A median [q1, q3] spread", "set B median [q1, q3] spread", "B worse", "bound")
	for _, m := range bf.EndToEnd {
		var st [2]struct{ med, q1, q3, spread float64 }
		for s := 0; s < 2; s++ {
			var vals []float64
			for _, o := range sets[s] {
				vals = append(vals, o.Metrics[m.Name].Value)
			}
			st[s].q1, _, st[s].q3 = quartiles(vals)
			st[s].med = median(vals)
			st[s].spread = (st[s].q3 - st[s].q1) / math.Abs(st[s].med)
		}
		worse := (st[1].med - st[0].med) / math.Abs(st[0].med)
		if m.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if m.Name != "setup_s" && (st[0].spread > m.Bound || st[1].spread > m.Bound) {
			verdict, ok = "SPREAD", false
		}
		if worse > m.Bound {
			verdict, ok = "DRIFT", false
		}
		if verdict == "ok" && m.Name != "setup_s" && (st[0].spread > m.Bound/3 || st[1].spread > m.Bound/3) {
			verdict = "ok (spread above a third of the bound)"
		}
		cell := func(s int) string {
			return fmt.Sprintf("%.6g [%.6g, %.6g] %.3f", st[s].med, st[s].q1, st[s].q3, st[s].spread)
		}
		fmt.Fprintf(stdout, "%-24s %-34s %-34s %+9.3f %7.3f %s\n", m.Name, cell(0), cell(1), worse, m.Bound, verdict)
	}
	var share [2]float64
	for s := 0; s < 2; s++ {
		a, f := 0, 0
		for _, o := range sets[s] {
			a += o.Attempted
			f += o.Failed
		}
		share[s] = float64(f) / float64(a)
	}
	fmt.Fprintf(stdout, "failed share: set A %s, set B %s\n", strconv.FormatFloat(share[0], 'g', -1, 64), strconv.FormatFloat(share[1], 'g', -1, 64))
	if share[0] != share[1] {
		ok = false
	}
	if !ok {
		return fmt.Errorf("the two sets do not agree within the bounds")
	}
	return nil
}

// runOnce runs the benchmark once in a child process and parses the
// JSON object on the last line of its output.
func runOnce(self, workload string, seed int64, seconds int) (output, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = sc.Text()
		}
	}
	if err != nil {
		return output{}, fmt.Errorf("%v (last line %q)", err, last)
	}
	var out output
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return output{}, fmt.Errorf("parse result line: %w", err)
	}
	return out, nil
}
