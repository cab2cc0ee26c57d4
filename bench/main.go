// Command bench is the repository's benchmark: four workloads over the
// serving path (serve -> cluster) and the train-to-serve path (fedserve ->
// registry -> store), measured end to end and layer by layer from outside
// the program — by calling its public functions and decorating the seams it
// already exposes. See README.md in this directory.
//
//	go run ./bench -seed 1                  every workload once, end-to-end metrics
//	go run ./bench -seed 1 -traced          the same plus a traced run of each for per-layer metrics
//	go run ./bench -compare A.json B.json   two result files against the bounds in BENCHMARK.json
//
// The driver's form runs one workload in this process:
//
//	bench --workload predict_single --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

var processStart = time.Now()

// runSeconds is BENCHMARK.json's run_seconds, the default length of a run.
const runSeconds = 24

// Repetitions inside one untraced run, so that each reported time is a
// median rather than a single draw.
const (
	setupReps   = 5
	recoverReps = 31
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print its result line (the driver's form)")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs traced and reports the per-layer metrics")
		traced   = flag.Bool("traced", false, "suite: follow each workload's run with a traced one")
		runs     = flag.Int("runs", 1, "suite: repeat with seeds seed, seed+1, ...")
		out      = flag.String("out", "", "suite: result file (default bench/out/result-seed<seed>.json)")
		compare  = flag.Bool("compare", false, "compare result files: -compare A.json [B.json]")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, "BENCHMARK.json", flag.Args())
	case *workload != "":
		err = single(*workload, *seed, *seconds, *trace == 1)
	default:
		if *out == "" {
			*out = filepath.Join("bench", "out", fmt.Sprintf("result-seed%d.json", *seed))
		}
		err = suite(*seed, *runs, *seconds, *traced, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is a run that completed but whose outputs failed a check.
var errIncorrect = errors.New("outputs incorrect or operations failed")

// single is the driver's form: one workload, in this process, result as the
// last line of standard output. Scratch data lives under .bench_build in
// the working directory and is removed afterwards.
func single(name string, seed int64, seconds float64, trace bool) error {
	sp, err := findWorkload(name)
	if err != nil {
		return err
	}
	dir := filepath.Join(".bench_build", "data", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res, err := runWorkload(sp, runOpts{
		seed: seed, seconds: seconds, trace: trace, started: processStart,
		dir: dir, outDir: filepath.Join("bench", "out"),
		setupReps: setupReps, recoverReps: recoverReps, log: os.Stdout,
	})
	if err != nil {
		return err
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runRecord is one run in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

type resultFile struct {
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// suite runs every workload in a fresh process each (so no workload inherits
// another's heap, pools or page cache state), once per seed, and writes all
// results to one file.
func suite(seed int64, runs int, seconds float64, traced bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Seconds: seconds}
	bad := 0
	for s := seed; s < seed+int64(runs); s++ {
		for _, sp := range workloads {
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && !traced {
					continue
				}
				fmt.Printf("== %s  seed %d  trace %d\n", sp.name, s, trace)
				rec, err := child(self, sp.name, s, seconds, trace)
				if err != nil {
					fmt.Printf("== %s FAILED: %v\n", sp.name, err)
					bad++
				}
				if rec != nil {
					file.Runs = append(file.Runs, *rec)
				}
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("== %d runs written to %s\n", len(file.Runs), out)
	if bad > 0 {
		return fmt.Errorf("%d runs failed", bad)
	}
	return nil
}

// child runs one workload in a fresh process, passing its output through,
// and parses the result from the last line it printed.
func child(self, workload string, seed int64, seconds float64, trace int) (*runRecord, error) {
	cmd := exec.Command(self,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var stdout strings.Builder
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	rec := &runRecord{Workload: workload, Seed: seed, Trace: trace}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return rec, runErr
}
