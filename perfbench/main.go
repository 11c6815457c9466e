// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload per invocation, checks the program's outputs against
// their oracles, and prints one JSON result line last on stdout:
//
//	bash perfbench/run.sh --workload sweep-detail --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run instead. BENCHMARK.json
// at the repository root lists the workloads and metrics, with units and
// bounds; README.md defines every metric on every workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spec is the part of BENCHMARK.json the program reads: the metrics it
// must report, with their units, and the workload names.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// specFile sits at the repository root, where the benchmark runs.
const specFile = "BENCHMARK.json"

func loadSpec() (spec, error) {
	var sp spec
	buf, err := os.ReadFile(specFile)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(buf, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", specFile, err)
	}
	return sp, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload hands back: its metrics by name, the
// attempted/failed counts (simulations for sweeps, requests for serving),
// and whether every output matched its oracle.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	oracleErr error
}

type cliArgs struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// workloads maps each name to its runner; TestSpecMatchesProgram keeps it
// in step with BENCHMARK.json.
var workloads = map[string]func(ctx context.Context, c cliArgs) (outcome, error){
	"sweep-detail":  runSweepDetail,
	"sweep-sampled": runSweepSampled,
	"serve-zipf":    runServeZipf,
}

func main() {
	c, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := checkout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	os.Exit(run(ctx, c, sp))
}

func parseArgs(args []string) (cliArgs, error) {
	var c cliArgs
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name: sweep-detail, sweep-sampled or serve-zipf")
	fs.Int64Var(&c.seed, "seed", 1, "input seed")
	fs.IntVar(&c.seconds, "seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if _, ok := workloads[c.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return c, fmt.Errorf("unknown workload %q (have %v)", c.workload, names)
	}
	if c.seconds < 1 {
		return c, errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return c, errors.New("--trace must be 0 or 1")
	}
	c.trace = *trace == 1
	return c, nil
}

// checkout verifies the benchmark runs from a repository root: the
// oracle inputs live there.
func checkout() error {
	for _, p := range []string{"go.mod", specFile, fig9Golden} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("not a repository root: %w", err)
		}
	}
	return nil
}

func run(ctx context.Context, c cliArgs, sp spec) int {
	calib := hostCalibNS()
	prov := newProvenance(c, calib)
	out, err := workloads[c.workload](ctx, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	defs := sp.EndToEnd
	if c.trace {
		out.metrics["host.calib_ns"] = calib
		defs = sp.PerLayer
	}
	res := result{
		Correct:   out.oracleErr == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && out.oracleErr == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", c.workload, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if out.oracleErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %v\n", c.workload, out.oracleErr)
	}
	failFrac := 0.0
	if out.attempted > 0 {
		failFrac = float64(out.failed) / float64(out.attempted)
	}
	writeRecord(c, prov, res, failFrac)

	fmt.Printf("# provenance: go=%s nproc=%d gomaxprocs=%d seed=%d host.calib_ns=%.4f\n",
		prov.GoVersion, prov.NumCPU, prov.GOMAXPROCS, prov.Seed, prov.CalibNS)
	fmt.Printf("# %s: attempted=%d failed=%d fail_frac=%.6f correct=%t\n",
		c.workload, res.Attempted, res.Failed, failFrac, res.Correct)
	for _, d := range defs {
		fmt.Printf("#   %-26s %14.6f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeRecord keeps the full result with its provenance under
// .bench_build/results, one file per run, for later comparison.
func writeRecord(c cliArgs, prov provenance, res result, failFrac float64) {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results dir:", err)
		return
	}
	rec := struct {
		Provenance provenance `json:"provenance"`
		FailFrac   float64    `json:"fail_frac"`
		Result     result     `json:"result"`
	}{prov, failFrac, res}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding record:", err)
		return
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", c.workload, c.seed, c.trace, time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
	}
}
