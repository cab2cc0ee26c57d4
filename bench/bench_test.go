package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSeededInputs: everything the program is fed is a function of the seed
// alone — same seed, same bytes and same schedule; another seed, others.
func TestSeededInputs(t *testing.T) {
	sp, err := findWorkload("predict_single")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) (*inputs, []time.Duration, *fedTask) {
		in, err := genInputs(seed, buildNet(sp.layers, seed), sp.layers[0], 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		task, err := genFedTask(seed)
		if err != nil {
			t.Fatal(err)
		}
		return in, genSchedule(seed, 1000, time.Second), task
	}
	in1, sched1, task1 := gen(7)
	in2, sched2, task2 := gen(7)
	in3, sched3, task3 := gen(8)
	if !reflect.DeepEqual(in1.bodies, in2.bodies) || !reflect.DeepEqual(in1.want, in2.want) {
		t.Error("same seed gave different request bodies or reference classes")
	}
	if !reflect.DeepEqual(sched1, sched2) {
		t.Error("same seed gave a different arrival schedule")
	}
	if !reflect.DeepEqual(task1.readerBodies, task2.readerBodies) || !reflect.DeepEqual(task1.shards[3].Labels, task2.shards[3].Labels) {
		t.Error("same seed gave a different federated task")
	}
	if reflect.DeepEqual(in1.bodies, in3.bodies) || reflect.DeepEqual(sched1, sched3) || reflect.DeepEqual(task1.readerBodies, task3.readerBodies) {
		t.Error("different seeds gave the same inputs")
	}
	if len(sched1) != 1000 || sched1[0] < 0 || sched1[len(sched1)-1] >= time.Second {
		t.Errorf("schedule of %d entries spans [%v, %v], want 1000 inside one second", len(sched1), sched1[0], sched1[len(sched1)-1])
	}
	for i := 1; i < len(sched1); i++ {
		if sched1[i] < sched1[i-1] {
			t.Fatalf("schedule not in due order at %d", i)
		}
	}
	if !bytes.HasPrefix(in1.bodies[0], []byte(`{"model":"bench","features":[[`)) {
		t.Errorf("unexpected body shape: %.60s", in1.bodies[0])
	}
}

// TestContract holds BENCHMARK.json and the program together: the same
// workloads, the same metric names and units, the same run length.
func TestContract(t *testing.T) {
	var c contract
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", c.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, sp := range workloads {
		want = append(want, sp.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	var e2e, layers []metricDef
	for _, m := range c.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range c.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from the program's list (%d vs %d entries)", len(layers), len(perLayer))
	}
}

// TestSmoke runs every workload, untraced and traced with its ladder, for a
// fraction of a second each: a change to any public function the benchmark
// calls breaks this test instead of silently breaking the benchmark.
func TestSmoke(t *testing.T) {
	for _, sp := range workloads {
		for _, trace := range []bool{false, true} {
			name := sp.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				var log bytes.Buffer
				res, err := runWorkload(sp, runOpts{
					seed: 3, seconds: 0.5, trace: trace, started: time.Now(),
					dir: dir, outDir: dir, setupReps: 1, recoverReps: 2, log: &log,
				})
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v attempted %d failed %d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
				}
				for name, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if !trace {
					return
				}
				// Ladder rungs and the workload's own layers must have measured something.
				must := []string{
					"tensor.matmul_ns_per_row", "nn.forward_ns_per_row", "serve.backend.runbatch_ns_per_row",
					"serve.runtime.predict_ns_per_req", "serve.server.handler_ns_per_req", "nn.encode_weights_ns",
					"store.append_nosync_ns", "store.open_ms_p50", "serve.registry.recover_ms_p50", "metrics.families",
					"http.client_ms_p50", "serve.server.handler_ms_p50", "store.append_publish_ms_p50", "serve.backend.calls",
				}
				if sp.forwarded {
					must = append(must, "cluster.forwards", "cluster.roundtrip_ms_p50", "cluster.handler_self_ms_p50")
				}
				if sp.train {
					must = append(must, "fedserve.round_ms_p50", "fedserve.fanout_ms_p50", "fedserve.coord_self_ms_p50", "nn.train_ns_per_sample")
				}
				for _, name := range must {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
					}
				}
				if _, err := os.Stat(filepath.Join(dir, "trace-"+sp.name+".json")); err != nil {
					t.Errorf("span file: %v", err)
				}
			})
		}
	}
}

// TestResultLine: the last line printed is the driver's JSON object with
// exactly its four keys.
func TestResultLine(t *testing.T) {
	res := &result{Correct: true, Attempted: 3, Metrics: newMetrics(endToEnd)}
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result line keys: %s", lines[len(lines)-1])
	}
}

// TestSelfTime: a parent's self time excludes what its children cover,
// counting overlapping children once.
func TestSelfTime(t *testing.T) {
	rec := newRecorder()
	at := func(ms int) time.Time { return rec.epoch.Add(time.Duration(ms) * time.Millisecond) }
	rec.add(span{Name: "parent", Round: 1}, at(0), at(100))
	rec.add(span{Name: "kid", Parent: "parent", Round: 1}, at(10), at(50))
	rec.add(span{Name: "kid", Parent: "parent", Round: 1}, at(30), at(70)) // overlaps the first
	rec.add(span{Name: "kid", Parent: "parent", Round: 2}, at(0), at(100)) // another round's
	if got := rec.selfMs("parent"); len(got) != 1 || got[0] != 40 {
		t.Errorf("self time %v, want [40]", got)
	}
}

// TestQuartiles pins the arithmetic to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// TestCompare: worse beyond the bound fails, a spread wider than the bound is
// unresolved, a larger failed share fails.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	contractPath := write("BENCHMARK.json", map[string]any{
		"workloads": []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{
			{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
			{"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.1},
		},
	})
	file := func(failed int, lat, tput []float64) resultFile {
		var f resultFile
		for i := range lat {
			f.Runs = append(f.Runs, runRecord{Workload: "w", result: result{
				Correct: true, Attempted: 100, Failed: failed,
				Metrics: metricSet{"lat": {lat[i], "ms"}, "tput": {tput[i], "1/s"}},
			}})
		}
		return f
	}
	base := write("a.json", file(0, []float64{10, 10.1, 9.9, 10}, []float64{100, 101, 99, 100}))
	cases := []struct {
		name    string
		b       resultFile
		wantErr bool
		want    string
	}{
		{"same", file(0, []float64{10.2, 10.3, 10.1, 10.2}, []float64{98, 99, 97, 98}), false, "ok"},
		{"slower", file(0, []float64{12, 12.1, 11.9, 12}, []float64{100, 101, 99, 100}), true, "worse"},
		{"lower throughput", file(0, []float64{10, 10.1, 9.9, 10}, []float64{80, 81, 79, 80}), true, "worse"},
		{"noisy", file(0, []float64{8, 12, 9, 11}, []float64{100, 101, 99, 100}), false, "unresolved"},
		{"failing", file(1, []float64{10, 10.1, 9.9, 10}, []float64{100, 101, 99, 100}), true, "WORSE"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := compareFiles(&out, contractPath, []string{base, write("b.json", c.b)})
		if (err != nil) != c.wantErr || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: err %v, output lacks %q:\n%s", c.name, err, c.want, out.String())
		}
	}
	if err := compareFiles(io.Discard, contractPath, []string{base}); err != nil {
		t.Errorf("spread table of one file: %v", err)
	}
}
