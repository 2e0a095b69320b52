package main

import (
	"encoding/json"
	"os"
	"testing"

	"sqloop/internal/core"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics a
// run reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Command   []string
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, code %s/%s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestChecksRejectPerturbedAnswers feeds every check the oracle's own
// answer, which must pass, and the same answer with one value moved,
// which must fail.
func TestChecksRejectPerturbedAnswers(t *testing.T) {
	rows := func(m map[int64]float64) *core.Result {
		res := &core.Result{}
		for n, v := range m {
			res.Rows = append(res.Rows, []any{n, v})
		}
		return res
	}
	counts := func(n int64) *core.Result { return &core.Result{Rows: [][]any{{n}}} }
	cases := []struct {
		name   string
		w      *workload
		g      *graph
		answer *core.Result
	}{
		{"pagerank", workloadNamed("pagerank-heap"), webGraph(300, 5, 7), nil},
		{"sssp", workloadNamed("sssp-disk-ckpt"), egoGraph(300, 20, 7), nil},
		{"dq", workloadNamed("dq-wire-shards"), chainGraph(600, 40, 7), nil},
	}
	cases[0].answer = rows(pageRankOracle(cases[0].g, prIterations))
	cases[1].answer = rows(dijkstra(cases[1].g, ssspSource))
	cases[2].answer = counts(dqOracle(cases[2].g, dqRoot, dqHops))
	for _, c := range cases {
		check := c.w.checker(c.g)
		if err := check(c.answer); err != nil {
			t.Errorf("%s: the oracle's own answer fails: %v", c.name, err)
		}
		if check(perturb(c.answer)) == nil {
			t.Errorf("%s: a perturbed answer passes", c.name)
		}
	}
	kept := dijkstra(cases[1].g, ssspSource)
	if err := checkSame("durability", kept, kept); err != nil {
		t.Errorf("durability: an identical table fails: %v", err)
	}
	if checkSame("durability", perturbed(kept, 1e-6), kept) == nil {
		t.Error("durability: a perturbed table passes")
	}
}
