package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles is Python's statistics.quantiles(values, n=4): the exclusive
// method, which is what the driver computes spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	at := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runAA runs the same binary 2n times per workload, sides in ABBA order,
// every run in its own process and on its own seed, and prints for each
// workload and metric both medians, how much worse B's is, the spread of
// all 2n values, and the bound. It returns 1 when a difference or a spread
// of an end-to-end metric is over its bound. setup_s is held to its bound
// on the difference only, which is the rule of the driver that accepts the
// benchmark. The printed-only metrics are in the table without a verdict.
func runAA(n int, name string, seed int64, seconds float64) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rows := bf.EndToEnd
	for _, d := range printedOnlyMetrics {
		better := "lower"
		if d.Name == "items_per_s" {
			better = "higher"
		}
		rows = append(rows, boundedMetric{Name: d.Name, Unit: d.Unit, Better: better})
	}
	fmt.Printf("%s\n\n", newFingerprint(seed))
	fmt.Printf("%d runs a side and workload, %g s measured each, seeds %d to %d, order ABBA.\n", n, seconds, seed, seed+int64(2*n)-1)
	fmt.Println("`diff` is how much worse the median of B is than the median of A, as a share of A;")
	fmt.Println("`spread` is (Q3 - Q1) / median over all runs of both sides, quartiles as Python's")
	fmt.Println("`statistics.quantiles(values, n=4)` gives them. setup_s is held to its bound on `diff` only.")
	failed := 0
	for _, w := range workloads {
		if name != "all" && name != w.name {
			continue
		}
		values := map[string][2][]float64{}
		for j := 0; j < 2*n; j++ {
			side := 0
			if j%4 == 1 || j%4 == 2 {
				side = 1
			}
			line, printed, err := runChild(exe, w.name, seed+int64(j), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, j, err)
				return 2
			}
			if !line.Correct || line.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: correct=%v failed=%d\n", w.name, j, line.Correct, line.Failed)
				failed++
			}
			for _, m := range []map[string]metricValue{line.Metrics, printed} {
				for k, v := range m {
					pair := values[k]
					pair[side] = append(pair[side], v.Value)
					values[k] = pair
				}
			}
		}
		fmt.Printf("\n### %s\n\n| metric | unit | median A | median B | diff | spread | bound | verdict |\n|---|---|---|---|---|---|---|---|\n", w.name)
		for _, m := range rows {
			a, b := values[m.Name][0], values[m.Name][1]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("| %s | %s | missing | | | | | FAIL |\n", m.Name, m.Unit)
				failed++
				continue
			}
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			if m.Better == "higher" {
				diff = -diff
			}
			q1, q2, q3 := quartiles(append(append([]float64(nil), a...), b...))
			spread := (q3 - q1) / q2
			bound, verdict := fmt.Sprintf("%.0f %%", 100*m.Bound), "ok"
			switch {
			case m.Bound == 0:
				bound, verdict = "", "printed only"
			case diff > m.Bound || (m.Name != "setup_s" && spread > m.Bound):
				verdict = "FAIL"
				failed++
			case m.Name != "setup_s" && spread > m.Bound/3:
				verdict = "ok (spread over a third of the bound)"
			}
			fmt.Printf("| %s | %s | %s | %s | %+.2f %% | %.2f %% | %s | %s |\n",
				m.Name, m.Unit, fmtG(ma), fmtG(mb), 100*diff, 100*spread, bound, verdict)
		}
		fmt.Printf("\nValues in run order within each side:\n\n| metric | A | B |\n|---|---|---|\n")
		for _, m := range rows {
			fmt.Printf("| %s | %s | %s |\n", m.Name, fmtList(values[m.Name][0]), fmtList(values[m.Name][1]))
		}
	}
	if failed > 0 {
		fmt.Printf("\n%d failures.\n", failed)
		return 1
	}
	fmt.Println("\nEvery difference and every spread of an end-to-end metric is within its bound.")
	return 0
}

func fmtList(vs []float64) string {
	var b bytes.Buffer
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', 4, 64))
	}
	return b.String()
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// runChild runs one untraced run in its own process and parses the result
// line, the last line it prints, and the printed-only line above it.
func runChild(exe, workload string, seed int64, seconds float64) (*resultLine, map[string]metricValue, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	var printed map[string]metricValue
	for _, l := range lines {
		if rest, ok := bytes.CutPrefix(l, []byte(printedOnlyPrefix)); ok {
			if err := json.Unmarshal(rest, &printed); err != nil {
				return nil, nil, fmt.Errorf("printed-only line: %w", err)
			}
		}
	}
	return &line, printed, nil
}
