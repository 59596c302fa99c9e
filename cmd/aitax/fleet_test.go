package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// fleetArgs is the test configuration: small enough to run in seconds,
// large enough that every tier is populated.
var fleetArgs = []string{"-devices", "2000", "-seed", "42"}

// TestGoldenFleetReport: the report is byte-identical across -parallel
// and -shards variations and matches the committed golden.
func TestGoldenFleetReport(t *testing.T) {
	var outputs []string
	for _, v := range [][]string{
		{"-parallel", "1"},
		{"-parallel", "2", "-shards", "7"},
		{"-parallel", "8", "-shards", "64"},
		{"-parallel", "4", "-shards", "1"},
	} {
		outputs = append(outputs, runCmd(t, runFleet, append(append([]string{}, fleetArgs...), v...)...))
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("report differs between variant 0 and %d", i)
		}
	}
	checkGolden(t, outputs[0], "fleet_report.golden")
	// The population must actually be heterogeneous: all three tiers
	// populated, and the entry tier visibly slower than flagship.
	for _, tier := range []string{"flagship", "mid", "entry"} {
		if !strings.Contains(outputs[0], "== tier "+tier+" ==") {
			t.Fatalf("report missing tier %s", tier)
		}
	}
}

// TestFleetJSONLAndCounters: the export paths produce valid JSON and
// the JSONL is byte-identical across shard counts.
func TestFleetJSONLAndCounters(t *testing.T) {
	dir := t.TempDir()
	render := func(shards string) string {
		jsonl := filepath.Join(dir, "pop_"+shards+".jsonl")
		counters := filepath.Join(dir, "counters_"+shards+".json")
		runCmd(t, runFleet, append(append([]string{}, fleetArgs...),
			"-shards", shards, "-jsonl", jsonl, "-counters", counters)...)
		rows := readFile(t, jsonl)
		for _, line := range strings.Split(strings.TrimSpace(rows), "\n") {
			var v map[string]any
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				t.Fatalf("bad JSONL line %q: %v", line, err)
			}
			if _, ok := v["sum"]; ok {
				t.Fatalf("JSONL row exports a float sum (non-mergeable): %q", line)
			}
		}
		var trace map[string]any
		if err := json.Unmarshal([]byte(readFile(t, counters)), &trace); err != nil {
			t.Fatalf("counters file is not valid JSON: %v", err)
		}
		return rows
	}
	if render("4") != render("25") {
		t.Fatal("JSONL differs across shard counts")
	}
}

// TestFleetBadFlags pins the CLI validation exits.
func TestFleetBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-dtype", "fp16"},
		{"-delegate", "tpu"},
		{"-models", "No Such Model"},
		{"-devices", "0"},
	} {
		if code, _ := runCode(runFleet, args...); code == 0 {
			t.Fatalf("%v accepted", args)
		}
	}
}
