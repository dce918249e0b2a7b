// Command bench is the repository's benchmark: six workloads, the
// end-to-end metrics a user of the system sees, and — with -trace 1 — a
// traced run that yields the per-layer metrics. BENCHMARK.json at the
// repository root names every workload and metric; this program measures
// them from outside the layers, through their public functions and hooks.
// README.md in this directory records why each workload and metric exists.
//
// Run it from the repository root: bash bench/run.sh -workload all -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json. Bound is set on end-to-end
// metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// catalogue is BENCHMARK.json. The runner reads its metric names from it so
// that the file and the program cannot disagree about what is reported.
type catalogue struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalogue() (*catalogue, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var c catalogue
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// env is what a workload is given: the seed every input derives from, how
// long to measure, and, in a traced run, where spans go.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	spans   *spanLog
}

// duration is the given share of the run's measuring time.
func (e *env) duration(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

// outcome is what a workload hands back.
type outcome struct {
	ops, failed int
	// invalid, when set, says why the run's numbers mean nothing (the live
	// loop did not sustain the offered rate); the run exits non-zero.
	invalid string
	metrics map[string]float64
	notes   []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (*outcome, error){}

func register(name string, fn func(*env) (*outcome, error)) { workloads[name] = fn }

// reading is one reported metric value.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of one workload run.
type report struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// runOne executes one workload in this process and builds its report: every
// end-to-end metric untraced, every per-layer metric traced. A per-layer
// metric of a layer the workload does not exercise reads 0.
func runOne(cat *catalogue, name string, fn func(*env) (*outcome, error), e *env) (*report, *outcome, error) {
	if e.traced {
		e.spans = newSpanLog()
	}
	out, err := fn(e)
	if err != nil {
		return nil, nil, err
	}
	defs := cat.EndToEnd
	if e.traced {
		defs = cat.PerLayer
		if err := e.spans.write(name); err != nil {
			return nil, nil, err
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		out.set("peak_rss_mb", rss)
	}
	rep := &report{
		Correct:   out.failed == 0 && out.invalid == "",
		Attempted: out.ops, Failed: out.failed,
		Metrics: map[string]reading{},
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), cat.EndToEnd...), cat.PerLayer...) {
		known[d.Name] = true
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !e.traced && (!ok || v <= 0) {
			return nil, nil, fmt.Errorf("%s: end-to-end metric %s not measured", name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s: metric %s is %v", name, d.Name, v)
		}
		rep.Metrics[d.Name] = reading{Value: v, Unit: d.Unit}
	}
	for m := range out.metrics {
		if !known[m] {
			return nil, nil, fmt.Errorf("%s: metric %s is not in BENCHMARK.json", name, m)
		}
	}
	return rep, out, nil
}

// printReport writes the human-readable table, then the result line.
func printReport(cat *catalogue, name string, e *env, rep *report, out *outcome) error {
	mode, defs := "end-to-end", cat.EndToEnd
	if e.traced {
		mode, defs = "per-layer (traced run)", cat.PerLayer
	}
	fmt.Printf("workload %s  seed %d  seconds %g  %s\n", name, e.seed, e.seconds, mode)
	fmt.Printf("  ops %d  failed %d\n", out.ops, out.failed)
	for _, d := range defs {
		v, measured := out.metrics[d.Name]
		if !measured {
			continue // a layer this workload does not exercise; reported as 0
		}
		line := fmt.Sprintf("  %-40s %14.6g %-10s %s is better", d.Name, v, d.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(", may worsen by %g", d.Bound)
		}
		fmt.Println(line)
	}
	for _, n := range out.notes {
		fmt.Println("  note:", n)
	}
	if out.invalid != "" {
		fmt.Println("  INVALID RUN:", out.invalid)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// child runs one workload in a child process of its own, so that set-up
// time, peak RSS and GC state are not inherited from the previous workload,
// and returns its report. The child's table goes to this process's stdout.
func child(name string, e *env) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if e.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(e.seed),
		"-seconds", fmt.Sprint(e.seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	b, runErr := cmd.Output()
	text := strings.TrimRight(string(b), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	fmt.Println(strings.TrimSuffix(text, last))
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &rep, nil
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end metrics")
	repeat := flag.Int("repeat", 1, "run each selected workload this many times and check every end-to-end metric's spread against its bound")
	jsonPath := flag.String("json", "", "also write every run's report to this file")
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *trace, *repeat, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed uint64, seconds float64, trace, repeat int, jsonPath string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	cat, err := loadCatalogue()
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(cat.RunSeconds)
	}
	e := &env{seed: seed, seconds: seconds, traced: trace == 1}

	if workload != "all" && repeat <= 1 && jsonPath == "" {
		fn, ok := workloads[workload]
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		rep, out, err := runOne(cat, workload, fn, e)
		if err != nil {
			return err
		}
		if err := printReport(cat, workload, e, rep, out); err != nil {
			return err
		}
		if !rep.Correct {
			return fmt.Errorf("%s: %d of %d operations failed or the run is invalid", workload, rep.Failed, rep.Attempted)
		}
		return nil
	}

	var names []string
	for _, w := range cat.Workloads {
		if workload == "all" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", workload)
	}
	return runMany(cat, names, e, repeat, jsonPath)
}

// runRecord is one child run as -json stores it.
type runRecord struct {
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Traced   bool   `json:"traced"`
	report
}

// runMany runs each workload repeat times, each run in a child process,
// reversing the workload order every other round so that no workload always
// follows the same neighbour. With -trace 1 every round is an untraced run
// followed by a traced one.
func runMany(cat *catalogue, names []string, e *env, repeat int, jsonPath string) error {
	var records []runRecord
	bad := 0
	for round := 0; round < repeat; round++ {
		order := append([]string(nil), names...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			modes := []bool{false}
			if e.traced {
				modes = append(modes, true)
			}
			for _, traced := range modes {
				ce := *e
				ce.traced = traced
				rep, err := child(name, &ce)
				if err != nil {
					return err
				}
				if !rep.Correct {
					bad++
				}
				records = append(records, runRecord{name, round, traced, *rep})
			}
		}
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(records, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if repeat > 1 {
		bad += summarize(cat, names, records)
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) incorrect or metric spread(s) beyond the bound", bad)
	}
	return nil
}

// summarize prints, per workload and end-to-end metric, the median and
// quartiles over the repeated runs, and returns how many metrics spread
// (max − min) ÷ median beyond their bound.
func summarize(cat *catalogue, names []string, records []runRecord) int {
	over := 0
	fmt.Println("spread over repeated runs: median [q1, q3] n, (max − min) ÷ median against the bound")
	for _, name := range names {
		for _, d := range cat.EndToEnd {
			var vs []float64
			for _, r := range records {
				if r.Workload == name && !r.Traced {
					vs = append(vs, r.Metrics[d.Name].Value)
				}
			}
			s := sorted(vs)
			med := quantile(s, 0.5)
			spread := ratio(s[len(s)-1]-s[0], med)
			verdict := "ok"
			if spread > d.Bound {
				verdict = "BEYOND BOUND"
				over++
			}
			fmt.Printf("  %-16s %-14s %12.6g [%.6g, %.6g] n=%d  spread %.4f / %.2f %s\n",
				name, d.Name, med, quantile(s, 0.25), quantile(s, 0.75), len(s), spread, d.Bound, verdict)
		}
	}
	return over
}
