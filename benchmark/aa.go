package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// wallCeiling is the issue's ceiling for a timed metric: one whose
// cross-run spread exceeds it is demoted to the layer list.
const wallCeiling = 0.10

// runAA is the noise audit that sets the bounds in BENCHMARK.json: it
// runs every workload n times, each in a fresh process with another
// seed (as the driver does), and prints per metric × workload the
// spread — the interquartile distance as a share of the median — beside
// the bound, then the same for the four timed metrics against the
// issue's 10 % ceiling. A gated metric is steady when its spread is
// under a third of its bound.
func runAA(ctx context.Context, n int, seed int64, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("A/A: %d runs per workload, seeds %d..%d, %.0f s window\n", n, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-13s %-17s %14s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "verdict")
	for _, def := range workloads {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			res, err := runChild(ctx, self, def.Name, seed+int64(i), seconds, outDir)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", def.Name, seed+int64(i), err)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		row := func(name string, bound float64, verdict string) {
			fmt.Printf("%-13s %-17s %14.6g %8.2f%% %6.1f%%  %s\n",
				def.Name, name, median(values[name]), 100*quartileSpread(values[name]), 100*bound, verdict)
		}
		for _, m := range endToEnd {
			spread := quartileSpread(values[m.Name])
			verdict := "steady"
			switch {
			case m.Name == "setup_s":
				verdict = "not gated on spread"
			case spread > m.Bound:
				verdict = "FAILS (spread over bound)"
			case spread > m.Bound/3:
				verdict = "loose (spread over a third of bound)"
			}
			row(m.Name, m.Bound, verdict)
		}
		for _, name := range timedNames {
			verdict := "holds 10 %"
			if quartileSpread(values[name]) > wallCeiling {
				verdict = "demoted (spread over 10 %)"
			}
			row(name, wallCeiling, verdict)
		}
	}
	return nil
}

// runChild runs one workload in a child process and parses the result
// object from the last line of its standard output.
func runChild(ctx context.Context, self, name string, seed int64, seconds float64, outDir string) (*runResult, error) {
	cmd := exec.CommandContext(ctx, self,
		"-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-timed", "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res runResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
