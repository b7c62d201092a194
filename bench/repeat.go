package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// repeatRuns is -repeat: every workload (or the one named) is run n times,
// one child process per run as the acceptance driver does, and for each
// end-to-end metric the median, the quartiles and their distance as a
// share of the median are printed next to the declared bound. The derived
// bound is the one the spread supports: three times the spread, at least
// 0.05. The exit code is non-zero when a run fails or a spread exceeds its
// declared bound (setup_s is reported but, as in the acceptance check, not
// held to its spread).
func repeatRuns(opt options, n int, vary bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := []string{opt.workload}
	if opt.workload == "" {
		names = names[:0]
		for _, w := range workloadRows {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, name := range names {
		values := map[string][]float64{}
		hashes := map[string]bool{}
		for i := 0; i < n; i++ {
			seed := opt.seed
			if vary {
				seed += int64(i)
			}
			args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-out", opt.outDir}
			if opt.quick {
				args = append(args, "-quick")
			}
			if opt.trace {
				args = append(args, "-trace", "1")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			res, sha, perr := parseOutput(out)
			if err != nil || perr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s run %d (seed %d) failed: %v %v\n", name, i, seed, err, perr)
				code = 1
				continue
			}
			hashes[fmt.Sprint(seed, ":", sha)] = true
			for metric, v := range res.Metrics {
				values[metric] = append(values[metric], v.Value)
			}
		}
		fmt.Printf("%s: %d runs, %d distinct (seed, result_sha256) pairs\n", name, n, len(hashes))
		if !vary && len(hashes) > 1 {
			fmt.Printf("  result_sha256 differs between runs of one seed\n")
			code = 1
		}
		defs := endToEnd
		if opt.trace {
			defs = perLayer
		}
		fmt.Printf("  %-28s %-6s %12s %12s %12s %8s %8s %8s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound", "derived")
		for _, d := range defs {
			v := values[d.Name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			spread := math.Abs((q3 - q1) / q2)
			verdict := ""
			if d.Bound > 0 && spread > d.Bound && d.Name != "setup_s" {
				verdict = "  SPREAD EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("  %-28s %-6s %12.5g %12.5g %12.5g %8.4f %8.2f %8.2f%s\n",
				d.Name, d.Unit, q1, q2, q3, spread, d.Bound, math.Max(0.05, 3*spread), verdict)
		}
		if !opt.trace {
			for _, d := range defs {
				fmt.Printf("  every run, %s:", d.Name)
				for _, x := range values[d.Name] {
					fmt.Printf(" %.5g", x)
				}
				fmt.Println()
			}
		}
	}
	return code
}

// parseOutput reads a run's standard output: the detail line's result hash
// and the contract line, which is the last one.
func parseOutput(out []byte) (result, string, error) {
	var res result
	var sha string
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		last = append(last[:0], line...)
		var d struct {
			Detail map[string]any `json:"detail"`
		}
		if json.Unmarshal(line, &d) == nil && d.Detail != nil {
			sha, _ = d.Detail["result_sha256"].(string)
		}
	}
	if err := sc.Err(); err != nil {
		return res, "", err
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, "", fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, sha, nil
}
