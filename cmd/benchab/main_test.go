package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestWorkloadsResolveAgainstBenchmark(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	all, err := b.workloads("all")
	if err != nil || len(all) != len(b.Workloads) || len(all) == 0 {
		t.Fatalf("all = %v, %v; want every declared workload", all, err)
	}
	two := all[len(all)-1] + ", " + all[0]
	if got, err := b.workloads(two); err != nil || !reflect.DeepEqual(got, []string{all[len(all)-1], all[0]}) {
		t.Errorf("workloads(%q) = %v, %v", two, got, err)
	}
	if got, err := b.workloads(all[0]); err != nil || !reflect.DeepEqual(got, all[:1]) {
		t.Errorf("workloads(%q) = %v, %v", all[0], got, err)
	}
	if _, err := b.workloads(all[0] + ",no-such-workload"); err == nil {
		t.Error("an undeclared workload was accepted")
	}
}
