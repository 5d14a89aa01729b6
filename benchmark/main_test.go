package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"lht"
)

// The smoke test runs the real program at a thousandth of the size: 2^10
// records, a few hundred ops, one set-up per run.
func smokeOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	w, err := findWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	o := defaultOptions()
	o.workload, o.trace, o.seed = w, trace, 7
	o.records, o.opsAt20, o.setups = 1<<10, 400, 1
	return o
}

func TestMain(m *testing.M) {
	lht.RegisterGobTypes()
	if err := buildNode(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// liveNodes lists the processes running this checkout's lht-node binary.
func liveNodes(t *testing.T) []int {
	t.Helper()
	bin, err := filepath.Abs(nodeBin)
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	exes, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, exe := range exes {
		if target, err := os.Readlink(exe); err == nil && strings.TrimSuffix(target, " (deleted)") == bin {
			var pid int
			fmt.Sscanf(exe, "/proc/%d/exe", &pid)
			pids = append(pids, pid)
		}
	}
	return pids
}

// waitNodes polls until exactly want nodes are alive.
func waitNodes(t *testing.T, want int) []int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		pids := liveNodes(t)
		if len(pids) == want {
			return pids
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d lht-node processes alive, want %d", len(pids), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestManifestMatchesProgram(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	sawSetup := false
	for _, d := range m.EndToEnd {
		e2e = append(e2e, metricDef{d.Name, d.Unit, d.Better})
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range m.PerLayer {
		layers = append(layers, metricDef{d.Name, d.Unit, d.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end of BENCHMARK.json:\n%v\nthe program's:\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer of BENCHMARK.json:\n%v\nthe program's:\n%v", layers, perLayer)
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var own []string
	for _, w := range workloads {
		own = append(own, w.name)
	}
	if !reflect.DeepEqual(names, own) {
		t.Errorf("workloads of BENCHMARK.json %v, the program's %v", names, own)
	}
	if m.RunSeconds != defaultOptions().seconds {
		t.Errorf("run_seconds %d, the program's default %d", m.RunSeconds, defaultOptions().seconds)
	}
}

// TestSmoke runs every workload and checks that the result is correct,
// that it carries exactly the manifest's metrics with their units, and
// that no node outlives a run.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, b2i(trace)), func(t *testing.T) {
				res, err := runOne(context.Background(), smokeOptions(t, w.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 400/2 {
					t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
					if _, err := os.Stat(fmt.Sprintf("%s/trace-%s.json", outDir, w.name)); err != nil {
						t.Error(err)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, %d listed", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
						t.Errorf("metric %s: printed %+v (present %v), unit must be %s", d.name, got, ok, d.unit)
					}
				}
				if !trace {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s reads %v", name, v.Value)
						}
					}
				}
				waitNodes(t, 0)
			})
		}
	}
}

// A deliberately wrong expectation must show in the result and in the
// exit status.
func TestCorruptedExpectation(t *testing.T) {
	for _, name := range []string{"get-probe", "insert-grow"} {
		o := smokeOptions(t, name, false)
		o.skew = 1
		var stdout, stderr bytes.Buffer
		if code := execute(context.Background(), o, false, 1, &stdout, &stderr); code != exitWrong {
			t.Errorf("%s: exit status %d, want %d\n%s", name, code, exitWrong, stderr.String())
		}
		var res result
		if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
			t.Fatalf("%s: %v in %q", name, err, stdout.String())
		}
		if res.Correct || res.Failed == 0 || res.Metrics["ok_ratio"].Value >= 1 {
			t.Errorf("%s: correct %v, failed %d, ok_ratio %v", name, res.Correct, res.Failed, res.Metrics["ok_ratio"].Value)
		}
	}
}

// -compare judges only what it can: two runs of one seed that both hold
// every end-to-end metric as a positive number. Anything else is a harness
// error, not a silent "ok".
func TestCompare(t *testing.T) {
	doc := func(seed int64, edit func(map[string]metricValue)) string {
		ms := map[string]metricValue{}
		for _, d := range endToEnd {
			ms[d.name] = metricValue{Value: 10, Unit: d.unit}
		}
		edit(ms)
		data, err := json.Marshal(document{Runs: []runRecord{{Workload: "get-probe", Seed: seed, Repeat: 1, result: result{Correct: true, Attempted: 1, Metrics: ms}}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := func(map[string]metricValue) {}
	base := doc(1, same)
	for _, c := range []struct {
		name string
		a, b string
		want int
	}{
		{"equal", base, doc(1, same), exitOK},
		{"worse within bound", base, doc(1, func(m map[string]metricValue) { m["setup_s"] = metricValue{Value: 12, Unit: "s"} }), exitOK},
		{"worse out of bound", base, doc(1, func(m map[string]metricValue) { m["lookups_per_op"] = metricValue{Value: 12, Unit: "count"} }), exitWrong},
		{"metric missing", base, doc(1, func(m map[string]metricValue) { delete(m, "allocs_per_op") }), exitHarness},
		{"metric zero in a", doc(1, func(m map[string]metricValue) { m["wire_bytes_per_op"] = metricValue{Unit: "B"} }), base, exitHarness},
		{"seeds differ", base, doc(2, same), exitHarness},
	} {
		var stdout, stderr bytes.Buffer
		if code := compareFiles(c.a, c.b, &stdout, &stderr); code != c.want {
			t.Errorf("%s: exit status %d, want %d\n%s%s", c.name, code, c.want, stdout.String(), stderr.String())
		}
	}
}

// A set-up that fails after the nodes are up (more replicas asked for than
// nodes exist, which tcpnet.Dial refuses) must take the nodes down.
func TestFailedSetUpStopsNodes(t *testing.T) {
	o := smokeOptions(t, "get-probe", false)
	o.workload.replicas = nodeCount + 1
	var stdout, stderr bytes.Buffer
	if code := execute(context.Background(), o, false, 1, &stdout, &stderr); code != exitHarness {
		t.Errorf("exit status %d, want %d", code, exitHarness)
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed set-up printed a result: %s", stdout.String())
	}
	waitNodes(t, 0)
}

// No node may survive the harness: neither an interrupt, which it handles
// by tearing down, nor a crash of the Go runtime (SIGQUIT ends the process
// the way an unrecovered panic does: no deferred call runs), where only
// Pdeathsig is left.
func TestNodesDieWithHarness(t *testing.T) {
	bin, err := filepath.Abs(outDir + "/benchmark.test-bin")
	if err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGQUIT} {
		t.Run(sig.String(), func(t *testing.T) {
			// A schedule of minutes; the signal goes out as soon as the
			// first set-up's nodes are up.
			cmd := exec.Command(bin, "--workload", "get-probe", "--seconds", "200")
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			waitNodes(t, nodeCount)
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			if err := cmd.Wait(); err == nil {
				t.Error("exit status 0 after " + sig.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("printed a result: %s", stdout.String())
			}
			waitNodes(t, 0)
		})
	}
}

// In a directory that holds only BENCHMARK.json and the benchmark's own
// files there is no program to build: the command must fail, not report.
func TestBareDirectoryFails(t *testing.T) {
	bare, err := filepath.Abs(outDir + "/bare")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(bare) })
	if err := os.MkdirAll(bare+"/benchmark", 0o755); err != nil {
		t.Fatal(err)
	}
	copyFile := func(from, to string) {
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("../BENCHMARK.json", bare+"/BENCHMARK.json")
	files, _ := filepath.Glob("*")
	for _, f := range files {
		if st, err := os.Stat(f); err == nil && st.Mode().IsRegular() {
			copyFile(f, bare+"/benchmark/"+f)
		}
	}
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	args := append(m.Command[1:], "--workload", m.Workloads[0].Name, "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd := exec.Command(m.Command[0], args...)
	cmd.Dir = bare
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Error("exit status 0 in a directory without the program")
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result: %s", stdout.String())
	}
}
