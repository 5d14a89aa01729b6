// Command lht-ab is the cluster ledger's A/B runner: it measures a base
// revision against the working tree by running both trees' own ledger
// (go run -C <tree>/benchmark .) in interleaved pairs, and writes the
// study — every run, per-metric medians and quartiles, pairs won and a
// verdict per BENCHMARK.json bound — to one JSON file.
//
//	go run ./cmd/lht-ab -base HEAD~1 -workloads insert-grow,get-probe \
//	    -seeds 1,13 -pairs 10 -claim insert-grow:wire_bytes_per_op \
//	    -out BENCH_36.json
//
// The base revision is exported with git archive into a temporary
// directory, removed on exit; the change is the working tree the command
// runs in, committed or not. Each pair runs both sides on one workload and
// seed back to back, the first mover swapped from pair to pair, and the
// pairs of all workloads and seeds are interleaved, so drift on the box
// falls on both sides alike. Nothing under benchmark/ is edited: each run
// is that tree's harness, and its last line of standard output is its
// result.
//
// Verdicts, per workload, seed and end-to-end metric, change against base:
//
//   - a claimed metric (-claim) is shown when the change is better in at
//     least nine tenths of the pairs, ties counting for neither, and the
//     medians differ by more than the base's interquartile range;
//   - a must-not-move metric (-must-not-move; by default every end-to-end
//     metric not claimed) is out of bound when the change's median is worse
//     than the base's by more than the metric's BENCHMARK.json bound, and
//     unresolved when it is not but the base's own interquartile range is
//     wider than the bound (unless every run of the change beats every run
//     of the base);
//   - a timing (unit "s": setup_s), which drifts with the box, is judged
//     from the pairs: it is out of bound only when its median is worse by
//     more than the bound and the change also lost the pairs, more of them
//     than a fair coin would lose with probability 0.05 (a one-sided sign
//     test), and unresolved when only the first holds.
//
// A workload named in -traced also gets a traced cell at every seed: the
// ledger at --trace 1, run in the same interleaved pairs. Its timings
// (facade throughput, median latency and CPU an operation, the client's
// and the nodes' shares of that CPU, the index's and the tcpnet spans' own
// time an operation, the decorator stack's cost a get, and a raw get's
// median round trip) are reported only: each is better or worse when the
// change won or lost more pairs than a fair coin would with probability
// 0.05 (the sign test above), and unresolved otherwise. They never fail
// the study, unless -claim names one (workload:timing, the workload
// traced): a claimed timing is judged by the claim rule above.
//
// Exit status: 0 when every claim is shown, no must-not-move metric is out
// of bound and every run's result was correct, 1 otherwise, 2 when a run
// produced no result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// Exit statuses, as the ledger's own.
const (
	exitOK      = 0
	exitWrong   = 1 // a claim not shown, a must-not-move metric out of bound, or an incorrect result
	exitHarness = 2 // a run produced no result
)

// Sides of a pair.
const (
	base = 0
	head = 1
)

var sideNames = [2]string{"base", "head"}

// manifest is the part of BENCHMARK.json lht-ab reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
	RunSecs  int         `json:"run_seconds"`
}

// timings are the per-layer metrics a traced cell is judged on.
var timings = []string{"facade.ops_per_s", "facade.p50_us", "facade.cpu_us_per_op", "client.cpu_us_per_op", "node.cpu_us_per_op",
	"tcpnet.get_raw_us_p50", "lht.self_us_per_op", "dht.stack_ns_per_get", "tcpnet.span_us_per_op"}

// metricDef is one end-to-end metric: its unit, its direction and its
// bound, the share of the base's value by which the change may be worse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// study is what -out holds.
type study struct {
	Args      []string `json:"args"`
	Base      string   `json:"base"`
	Head      string   `json:"head"`
	HeadDirty bool     `json:"head_dirty"`
	Seconds   int      `json:"seconds"`
	Pairs     int      `json:"pairs"`
	Seeds     []int64  `json:"seeds"`
	Cells     []*cell  `json:"cells"`
	Pass      bool     `json:"pass"`
}

// cell is one workload at one seed and trace level: both sides' runs,
// pair by pair, and the verdict on each end-to-end metric, or on each
// timing of a traced cell.
type cell struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    int         `json:"trace"` // the ledger's --trace
	Runs     [2][]sample `json:"runs"`  // base, head
	Verdicts []*verdict  `json:"verdicts"`
}

// sample is one harness run's result.
type sample struct {
	First     bool               `json:"first"` // ran first in its pair
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// verdict is one metric of one cell, judged.
type verdict struct {
	Metric  string    `json:"metric"`
	Role    string    `json:"role"` // claim, must-not-move, report or timing
	Bound   float64   `json:"bound"`
	Sides   [2]spread `json:"sides"` // base, head
	Worse   float64   `json:"worse"` // by how much the change's median is worse, as a share of the base's
	Won     int       `json:"won"`   // pairs the change is better in
	Lost    int       `json:"lost"`  // pairs the change is worse in
	Verdict string    `json:"verdict"`
}

// spread is a side's median and quartiles.
type spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// options are the parsed flags.
type options struct {
	base      string
	workloads []string
	traced    []string // workloads that also run a --trace 1 cell
	seeds     []int64
	pairs     int
	seconds   int
	claims    map[string]bool // workload:metric
	still     map[string]bool // workload:metric or metric; nil = every unclaimed metric
	out       string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lht-ab:", err)
		return exitHarness
	}
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return fail(err)
	}
	m, err := loadManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	o, err := parseFlags(args, m, stderr)
	if err != nil {
		return fail(err)
	}
	timingDefs, err := m.timingDefs()
	if err != nil {
		return fail(err)
	}
	s := &study{Args: args, Seconds: o.seconds, Pairs: o.pairs, Seeds: o.seeds}
	if s.Base, err = git(ctx, root, "rev-parse", "--verify", o.base+"^{commit}"); err != nil {
		return fail(err)
	}
	if s.Head, err = git(ctx, root, "rev-parse", "HEAD"); err != nil {
		return fail(err)
	}
	dirty, err := git(ctx, root, "status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return fail(err)
	}
	s.HeadDirty = dirty != ""
	tmp, err := os.MkdirTemp("", "lht-ab-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	if err := export(ctx, root, s.Base, tmp); err != nil {
		return fail(err)
	}
	trees := [2]string{tmp, root}

	for _, w := range o.workloads {
		for _, seed := range o.seeds {
			s.Cells = append(s.Cells, &cell{Workload: w, Seed: seed})
		}
	}
	for _, w := range o.traced {
		for _, seed := range o.seeds {
			s.Cells = append(s.Cells, &cell{Workload: w, Seed: seed, Trace: 1})
		}
	}
	s.Pass = true
	for p := 0; p < o.pairs; p++ {
		for _, c := range s.Cells {
			first := p % 2 // base leads the even pairs, the change the odd
			for _, side := range []int{first, 1 - first} {
				r, err := ledger(ctx, trees[side], c.Workload, c.Seed, c.Trace, o.seconds)
				if err != nil {
					return fail(fmt.Errorf("%s, %s seed %d trace %d, pair %d: %w", sideNames[side], c.Workload, c.Seed, c.Trace, p+1, err))
				}
				r.First = side == first
				c.Runs[side] = append(c.Runs[side], r)
				fmt.Fprintf(stderr, "lht-ab: pair %d/%d %s seed %d trace %d %s: correct %v, %v\n", p+1, o.pairs, c.Workload, c.Seed, c.Trace, sideNames[side], r.Correct, r.Metrics)
				s.Pass = s.Pass && r.Correct
			}
		}
	}

	for _, c := range s.Cells {
		defs := m.EndToEnd
		if c.Trace == 1 {
			defs = timingDefs
		}
		for _, def := range defs {
			role := o.role(c.Workload, def.Name)
			if c.Trace == 1 && role != "claim" {
				role = "timing"
			}
			v := &verdict{Metric: def.Name, Role: role, Bound: def.Bound}
			if err := v.judge(c.Runs, def); err != nil {
				return fail(fmt.Errorf("%s seed %d trace %d: %w", c.Workload, c.Seed, c.Trace, err))
			}
			s.Pass = s.Pass && v.Verdict != "out of bound" && v.Verdict != "not shown"
			c.Verdicts = append(c.Verdicts, v)
		}
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return fail(err)
	}
	if err := s.table(stdout); err != nil {
		return fail(err)
	}
	if !s.Pass {
		return exitWrong
	}
	return exitOK
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// timingDefs are the per-layer definitions of the timings, in their order.
func (m manifest) timingDefs() ([]metricDef, error) {
	var defs []metricDef
	for _, name := range timings {
		i := slices.IndexFunc(m.PerLayer, func(d metricDef) bool { return d.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("BENCHMARK.json has no per-layer metric %s", name)
		}
		defs = append(defs, m.PerLayer[i])
	}
	return defs, nil
}

func parseFlags(args []string, m manifest, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("lht-ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	o := options{}
	fs.StringVar(&o.base, "base", "", "revision to measure the working tree against (required)")
	workloads := fs.String("workloads", strings.Join(names, ","), "comma-separated workloads")
	traced := fs.String("traced", "", "comma-separated workloads that also run a --trace 1 cell at each seed, its timings reported only")
	seeds := fs.String("seeds", "1", "comma-separated seeds; each workload runs at each")
	fs.IntVar(&o.pairs, "pairs", 10, "pairs per workload and seed")
	fs.IntVar(&o.seconds, "seconds", m.RunSecs, "the ledger's --seconds, the same on both sides")
	claim := fs.String("claim", "", "comma-separated workload:metric gains the study must show; the metric an end-to-end one, or a timing of a -traced workload")
	still := fs.String("must-not-move", "", "comma-separated metric or workload:metric that must stay within bound (default: every end-to-end metric not claimed)")
	fs.StringVar(&o.out, "out", "", "file the study is written to, e.g. BENCH_<n>.json (required)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.base == "" || o.out == "" || fs.NArg() != 0 || o.pairs < 1 || o.seconds < 1 {
		fs.Usage()
		return o, errors.New("-base and -out are required, -pairs and -seconds positive, and nothing follows the flags")
	}
	o.workloads = strings.Split(*workloads, ",")
	if *traced != "" {
		o.traced = strings.Split(*traced, ",")
	}
	for _, w := range slices.Concat(o.workloads, o.traced) {
		if !slices.Contains(names, w) {
			return o, fmt.Errorf("unknown workload %q (BENCHMARK.json has %s)", w, strings.Join(names, ", "))
		}
	}
	for _, f := range strings.Split(*seeds, ",") {
		seed, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return o, fmt.Errorf("-seeds: %w", err)
		}
		o.seeds = append(o.seeds, seed)
	}
	var metrics []string
	for _, d := range m.EndToEnd {
		metrics = append(metrics, d.Name)
	}
	var err error
	if o.claims, err = cellSet(*claim, names, slices.Concat(metrics, timings), true); err != nil {
		return o, fmt.Errorf("-claim: %w", err)
	}
	for c := range o.claims {
		if w, metric, _ := strings.Cut(c, ":"); slices.Contains(timings, metric) && !slices.Contains(o.traced, w) {
			return o, fmt.Errorf("-claim %s: a timing is claimed on a traced cell, and -traced has no %s", c, w)
		}
	}
	if *still != "" {
		if o.still, err = cellSet(*still, names, metrics, false); err != nil {
			return o, fmt.Errorf("-must-not-move: %w", err)
		}
	}
	return o, nil
}

// cellSet parses a comma-separated list of workload:metric, or, unless
// qualified is set, of bare metrics too, checking every name.
func cellSet(list string, workloads, metrics []string, qualified bool) (map[string]bool, error) {
	set := map[string]bool{}
	for _, f := range strings.Split(list, ",") {
		if f == "" {
			continue
		}
		w, metric, ok := strings.Cut(f, ":")
		if !ok {
			w, metric = "", f
		}
		switch {
		case ok && !slices.Contains(workloads, w), !ok && qualified:
			return nil, fmt.Errorf("%q is not workload:metric", f)
		case !slices.Contains(metrics, metric):
			return nil, fmt.Errorf("%q: no metric %q to judge", f, metric)
		}
		set[f] = true
	}
	return set, nil
}

// role is what the study asks of metric on workload w.
func (o options) role(w, metric string) string {
	switch {
	case o.claims[w+":"+metric]:
		return "claim"
	case o.still == nil || o.still[metric] || o.still[w+":"+metric]:
		return "must-not-move"
	}
	return "report"
}

// git runs git in dir (the current directory when empty) and returns its
// trimmed standard output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// export writes the tree of commit rev of the repository at root into dir,
// by git archive piped into tar, which leaves nothing behind in the
// repository.
func export(ctx context.Context, root, rev, dir string) error {
	archive := exec.CommandContext(ctx, "git", "archive", rev)
	archive.Dir = root
	untar := exec.CommandContext(ctx, "tar", "-x", "-C", dir)
	var err error
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return err
	}
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		_ = untar.Wait() // reports only that its input ended early
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("tar -x: %w", err)
	}
	return nil
}

// ledger runs one tree's harness on one workload and seed at one trace
// level, and parses the result off its last line of standard output. A
// run that exits 1 (an incorrect result) still has one; any other failure
// is an error carrying the end of its standard error.
func ledger(ctx context.Context, tree, workload string, seed int64, trace, seconds int) (sample, error) {
	cmd := exec.CommandContext(ctx, "go", "run", "-C", filepath.Join(tree, "benchmark"), ".",
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == exitWrong) {
		return sample{}, fmt.Errorf("%w: %s", err, tail(stderr.String(), 400))
	}
	return parseResult(out)
}

// parseResult reads a run's result, the JSON object on the last line of
// its standard output, end-to-end or per-layer alike.
func parseResult(out []byte) (sample, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return sample{}, fmt.Errorf("last line of output: %w", err)
	}
	r := sample{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
	for name, v := range res.Metrics {
		r.Metrics[name] = v.Value
	}
	return r, nil
}

func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// judge fills v from both sides' runs of def, pair by pair.
func (v *verdict) judge(runs [2][]sample, def metricDef) error {
	var vals [2][]float64
	for side := range runs {
		for _, r := range runs[side] {
			x, ok := r.Metrics[v.Metric]
			if !ok {
				return fmt.Errorf("a %s run has no %s", sideNames[side], v.Metric)
			}
			vals[side] = append(vals[side], x)
		}
	}
	sign := 1.0 // worse is higher
	if def.Better == "higher" {
		sign = -1
	}
	for i := range vals[base] {
		switch d := sign * (vals[head][i] - vals[base][i]); {
		case d < 0:
			v.Won++
		case d > 0:
			v.Lost++
		}
	}
	for side := range vals {
		v.Sides[side] = spreadOf(vals[side])
	}
	b, h := v.Sides[base], v.Sides[head]
	v.Worse = sign*relative(h.Median, b.Median) + 0 // no -0
	iqr := b.Q3 - b.Q1
	n := len(vals[base])
	switch {
	case v.Role == "timing" && signTest(v.Won, v.Won+v.Lost) < 0.05:
		v.Verdict = "better (reported only)"
	case v.Role == "timing" && signTest(v.Lost, v.Won+v.Lost) < 0.05:
		v.Verdict = "worse (reported only)"
	case v.Role == "timing":
		v.Verdict = "unresolved (reported only)"
	case v.Role == "claim" && 10*v.Won >= 9*n && sign*(b.Median-h.Median) > iqr:
		v.Verdict = "shown"
	case v.Role == "claim":
		v.Verdict = "not shown"
	case v.Worse > v.Bound && (def.Unit != "s" || signTest(v.Lost, v.Won+v.Lost) < 0.05):
		v.Verdict = "out of bound"
	case v.Worse > v.Bound || iqr > v.Bound*math.Abs(b.Median) && !beats(vals, sign):
		v.Verdict = "unresolved"
	default:
		v.Verdict = "ok"
	}
	if v.Role == "report" && v.Verdict != "ok" {
		v.Verdict += " (reported only)"
	}
	return nil
}

// relative is (x - y) / y, 0 when both are 0.
func relative(x, y float64) float64 {
	if x == y {
		return 0
	}
	return (x - y) / y
}

// beats reports whether every run of the change reads better than every
// run of the base; sign is -1 for a metric whose higher values are better.
func beats(vals [2][]float64, sign float64) bool {
	if sign < 0 {
		return slices.Min(vals[head]) > slices.Max(vals[base])
	}
	return slices.Max(vals[head]) < slices.Min(vals[base])
}

// spreadOf is the median and quartiles of xs, linearly interpolated
// between order statistics.
func spreadOf(xs []float64) spread {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return spread{Q1: q(0.25), Median: q(0.5), Q3: q(0.75)}
}

// signTest is the probability that a fair coin tossed n times comes up
// heads k times or more.
func signTest(k, n int) float64 {
	p := 0.0
	for i := k; i <= n; i++ {
		p += binomial(n, i)
	}
	return p / math.Pow(2, float64(n))
}

func binomial(n, k int) float64 {
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(n-k+i) / float64(i)
	}
	return c
}

// table prints the verdicts, one line per workload, seed and metric.
func (s *study) table(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tseed\ttrace\tmetric\trole\tbase [q1, q3]\thead [q1, q3]\tworse by\tbound\twon/lost\tverdict")
	for _, c := range s.Cells {
		for _, v := range c.Verdicts {
			b, h := v.Sides[base], v.Sides[head]
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%.1f%%\t%d/%d\t%s\n",
				c.Workload, c.Seed, c.Trace, v.Metric, v.Role, b.Median, b.Q1, b.Q3, h.Median, h.Q1, h.Q3, 100*v.Worse, 100*v.Bound, v.Won, v.Lost, v.Verdict)
		}
	}
	return tw.Flush()
}
