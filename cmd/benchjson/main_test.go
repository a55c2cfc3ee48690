package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
BenchmarkRebalanceAblation/static-8         	       1	5000000 ns/op	       120000 queries/s
BenchmarkRebalanceAblation/rebalanced-8     	       1	3000000 ns/op	       180000 queries/s
BenchmarkReplicationAblation/unreplicated-8 	       1	4000000 ns/op	       100000 queries/s
BenchmarkReplicationAblation/replicated-k3-8	       1	2000000 ns/op	       210000 queries/s
BenchmarkHTAPAblation-8                     	       1	9000000 ns/op
BenchmarkQueryAblation/naive-8              	       1	8000000 ns/op	        50 queries/s	        90.0 trains/op
BenchmarkQueryAblation/compiled-8           	       1	2000000 ns/op	       200 queries/s	        12.0 trains/op
BenchmarkUngated/only-8                     	    1000	   1000 ns/op
`

func parseSample(t *testing.T) map[string]*report {
	t.Helper()
	reports, order, err := parse(strings.NewReader(sampleBench), "abc123")
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("parsed %d benchmarks (%v), want 5", len(order), order)
	}
	return reports
}

func TestParse(t *testing.T) {
	reports := parseSample(t)
	r := reports["RebalanceAblation"]
	if r == nil {
		t.Fatal("RebalanceAblation not parsed")
	}
	if r.Commit != "abc123" {
		t.Errorf("commit = %q, want abc123", r.Commit)
	}
	if got := r.NsPerOp["static"]; got != 5000000 {
		t.Errorf("static ns/op = %v, want 5000000", got)
	}
	if got := r.Metrics["rebalanced"]["queries/s"]; got != 180000 {
		t.Errorf("rebalanced queries/s = %v, want 180000", got)
	}
	if got := reports["HTAPAblation"].NsPerOp[""]; got != 9000000 {
		t.Errorf("HTAPAblation ns/op = %v, want 9000000 under the empty variant key", got)
	}
}

func TestApplyGateRatios(t *testing.T) {
	reports := parseSample(t)

	r := reports["RebalanceAblation"]
	applyGate(r)
	if r.Gate == "" || r.Gate == "skipped" {
		t.Errorf("RebalanceAblation gate = %q, want a computed gate", r.Gate)
	}
	if r.GateRatio != 1.5 {
		t.Errorf("RebalanceAblation ratio = %v, want 1.5", r.GateRatio)
	}

	r = reports["ReplicationAblation"]
	applyGate(r)
	if r.Gate != "queries/s replicated-k3 / unreplicated" {
		t.Errorf("ReplicationAblation gate = %q", r.Gate)
	}
	if r.GateRatio != 2.1 {
		t.Errorf("ReplicationAblation ratio = %v, want 2.1", r.GateRatio)
	}

	// A composite gate is the weakest of its ratios: ns/op is 4.0x but
	// bytes/op only 1.6x, so the bytes ratio is the verdict.
	r = &report{Name: "QueryAblation",
		NsPerOp: map[string]float64{"naive": 8000000, "compiled": 2000000},
		Metrics: map[string]map[string]float64{"naive": {"bytes/op": 640}, "compiled": {"bytes/op": 400}}}
	applyGate(r)
	if r.Gate != "min: bytes/op naive / compiled" {
		t.Errorf("QueryAblation gate = %q", r.Gate)
	}
	if r.GateRatio != 1.6 {
		t.Errorf("QueryAblation ratio = %v, want 1.6", r.GateRatio)
	}

	// The sample QueryAblation reports only ns/op and train metrics — no
	// bytes/op. Its composite gate must drop the absent traffic part and gate
	// on the ns ratio alone, never divide by the part that is not there.
	r = reports["QueryAblation"]
	applyGate(r)
	if r.Gate != "min: ns/op naive / compiled" {
		t.Errorf("QueryAblation gate = %q", r.Gate)
	}
	if r.GateRatio != 4.0 {
		t.Errorf("QueryAblation ratio = %v, want 4.0", r.GateRatio)
	}

	r = reports["Ungated"]
	applyGate(r)
	if r.Gate != "" || r.GateRatio != 0 {
		t.Errorf("ungated benchmark got gate %q ratio %v", r.Gate, r.GateRatio)
	}
}

// TestApplyGateSkipsDegenerateBaselines is the regression test for the
// divide-by-zero gate bug: a run where the baseline variant is missing (or a
// baseline metric never reported) must yield the explicit verdict "skipped",
// never a 0 or +Inf ratio — +Inf is unrepresentable in JSON, and a silent 0
// reads as a catastrophic regression.
func TestApplyGateSkipsDegenerateBaselines(t *testing.T) {
	reports := parseSample(t)

	// HTAPAblation ran without its makespan-x metric (the closure used to
	// emit a labelled gate with ratio 0).
	r := reports["HTAPAblation"]
	applyGate(r)
	if r.Gate != "skipped" || r.GateRatio != 0 {
		t.Errorf("HTAPAblation gate = %q ratio %v, want skipped/0", r.Gate, r.GateRatio)
	}

	// A *degenerate* metric part — one variant reported bytes/op, the other
	// did not — poisons the whole composite: half a metric is evidence of a
	// broken run, not of an intentionally unreported axis.
	r = &report{Name: "QueryAblation",
		NsPerOp: map[string]float64{"naive": 8000000, "compiled": 2000000},
		Metrics: map[string]map[string]float64{"naive": {"bytes/op": 640}}}
	applyGate(r)
	if r.Gate != "skipped" || r.GateRatio != 0 {
		t.Errorf("QueryAblation with half a bytes/op: gate = %q ratio %v, want skipped/0", r.Gate, r.GateRatio)
	}

	// A query benchmark run where the compiled variant never ran at all:
	// every part is absent, so the whole gate is skipped.
	r = &report{Name: "QueryAblation", NsPerOp: map[string]float64{"naive": 8000000}}
	applyGate(r)
	if r.Gate != "skipped" || r.GateRatio != 0 {
		t.Errorf("QueryAblation naive-only: gate = %q ratio %v, want skipped/0", r.Gate, r.GateRatio)
	}

	// A zero baseline metric must not produce +Inf.
	r = &report{Name: "ReplicationAblation", NsPerOp: map[string]float64{"unreplicated": 1, "replicated-k3": 1},
		Metrics: map[string]map[string]float64{
			"unreplicated":  {"queries/s": 0},
			"replicated-k3": {"queries/s": 50000},
		}}
	applyGate(r)
	if r.Gate != "skipped" || r.GateRatio != 0 {
		t.Errorf("zero baseline: gate = %q ratio %v, want skipped/0", r.Gate, r.GateRatio)
	}
}
