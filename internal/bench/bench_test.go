package bench

import (
	"strconv"
	"strings"
	"testing"

	"aitax/internal/faults"
	"aitax/internal/soc"
)

func smallCfg() Config {
	return Config{Platform: soc.Pixel3(), Seed: 42, Runs: 12}
}

// runID runs the experiment with the given id.
func runID(t *testing.T, id string, cfg Config) *Result {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(cfg)
}

func TestRegistryCoversAllArtifacts(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "fig3", "fig4a", "fig4b", "fig5",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "coldstart", "probe",
		"models", "platforms", "prefs", "thermal", "ablation-partitions",
		"init", "stdlib", "frameworks", "dvfs", "post", "fusion", "preoffload",
		"driverfix", "resolution", "faults"}
	if len(ids) != len(want) {
		t.Fatalf("experiments = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids[%d] = %s, want %s", i, ids[i], id)
		}
	}
	if _, err := ByID("fig5"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllExperimentsRunAndRender(t *testing.T) {
	cfg := smallCfg()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(cfg)
			if res == nil {
				t.Fatal("nil result")
			}
			if res.ID != e.ID {
				t.Fatalf("result id = %s", res.ID)
			}
			out := res.Render()
			if len(out) < 40 {
				t.Fatalf("render too small:\n%s", out)
			}
			for _, n := range res.Notes {
				if strings.Contains(n, "FAIL") {
					t.Errorf("shape check failed: %s", n)
				}
				if strings.Contains(n, "setup failed") {
					t.Errorf("experiment setup failed: %s", n)
				}
			}
		})
	}
}

func TestTableIHasElevenRows(t *testing.T) {
	res := TableI(smallCfg())
	if len(res.Rows) != 11 {
		t.Fatalf("Table I rows = %d", len(res.Rows))
	}
	// MobileNet row must be fully supported.
	if got := res.Rows[0][5:]; got[0] != "Y" || got[1] != "Y" || got[2] != "Y" || got[3] != "Y" {
		t.Fatalf("MobileNet support cells = %v", got)
	}
	// AlexNet row: N N Y Y.
	for _, row := range res.Rows {
		if row[1] == "AlexNet" {
			if row[5] != "N" || row[6] != "N" || row[7] != "Y" || row[8] != "Y" {
				t.Fatalf("AlexNet support = %v", row[5:])
			}
		}
	}
}

func TestTableIIHasFourPlatforms(t *testing.T) {
	res := TableII(smallCfg())
	if len(res.Rows) != 4 {
		t.Fatalf("Table II rows = %d", len(res.Rows))
	}
}

func TestFigure5RatioInBand(t *testing.T) {
	res := runID(t, "fig5", smallCfg())
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "degradation vs CPU-1T") {
			found = true
			// Extract "N.Nx".
			f := strings.Fields(n)
			for _, tok := range f {
				if strings.HasSuffix(tok, "x") {
					v, err := strconv.ParseFloat(strings.TrimSuffix(tok, "x"), 64)
					if err == nil {
						if v < 4 || v > 11 {
							t.Fatalf("degradation = %.1fx, want ~7x", v)
						}
						return
					}
				}
			}
		}
	}
	if !found {
		t.Fatalf("no degradation note in:\n%s", res.Render())
	}
}

func TestFigure6ShowsThreeProfiles(t *testing.T) {
	res := Figure6(smallCfg())
	if len(res.Blocks) != 3 {
		t.Fatalf("profiles = %d, want 3", len(res.Blocks))
	}
	joined := strings.Join(res.Blocks, "\n")
	if !strings.Contains(joined, "cdsp") {
		t.Fatal("missing cDSP row")
	}
}

func TestFigure8AmortizationMonotone(t *testing.T) {
	res := Figure8(smallCfg())
	// Offload share column (index 3) must be non-increasing.
	prev := 101.0
	for _, row := range res.Rows {
		s := strings.TrimSuffix(row[3], "%")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad share %q", row[3])
		}
		if v > prev+0.5 {
			t.Fatalf("offload share rose: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestFigure9InferenceGrows(t *testing.T) {
	res := runID(t, "fig9", smallCfg())
	var first, last float64
	for i, row := range res.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = v
		}
		last = v
	}
	if last < 2*first {
		t.Fatalf("fig9 inference %v -> %v, want strong growth", first, last)
	}
}

func TestFigure10CapturePreGrows(t *testing.T) {
	res := runID(t, "fig10", smallCfg())
	capPre := func(row []string) float64 {
		c, _ := strconv.ParseFloat(row[1], 64)
		p, _ := strconv.ParseFloat(row[2], 64)
		return c + p
	}
	inf := func(row []string) float64 {
		v, _ := strconv.ParseFloat(row[3], 64)
		return v
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if capPre(last) < 1.3*capPre(first) {
		t.Fatalf("fig10 capture+pre %v -> %v, want growth", capPre(first), capPre(last))
	}
	if inf(last) > 1.6*inf(first) {
		t.Fatalf("fig10 inference %v -> %v, want ~flat", inf(first), inf(last))
	}
}

func TestColdStartDominatedBySetup(t *testing.T) {
	res := ColdStart(smallCfg())
	if len(res.Rows) < 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	coldSetup, _ := strconv.ParseFloat(res.Rows[0][1], 64)
	warmSetup, _ := strconv.ParseFloat(res.Rows[1][1], 64)
	if coldSetup <= 0 || warmSetup != 0 {
		t.Fatalf("setup cells: cold=%v warm=%v", coldSetup, warmSetup)
	}
}

func TestDeterministicResults(t *testing.T) {
	a := runID(t, "fig5", smallCfg()).Render()
	b := runID(t, "fig5", smallCfg()).Render()
	if a != b {
		t.Fatal("experiment output is nondeterministic")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Platform == nil || c.Seed == 0 || c.Runs == 0 {
		t.Fatal("defaults not applied")
	}
}

func TestModelCard(t *testing.T) {
	res := modelCard()
	if len(res.Rows) != 11 {
		t.Fatalf("model card rows = %d", len(res.Rows))
	}
}

func TestRenderMarkdownAndCSV(t *testing.T) {
	res := TableII(smallCfg())
	md := res.RenderMarkdown()
	if !strings.Contains(md, "## table2") || !strings.Contains(md, "| --- |") {
		t.Fatalf("markdown malformed:\n%s", md)
	}
	csv := res.RenderCSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 { // header + 4 platforms
		t.Fatalf("csv lines = %d", len(lines))
	}
	// Commas inside cells must be quoted.
	if !strings.Contains(csv, `"`) {
		t.Fatal("accelerator cells contain commas and must be quoted")
	}
}

func TestShapesHoldAcrossChipsets(t *testing.T) {
	// §III-C: "our experimental results indicate that the trends are
	// representative across the other, older and newer, chipsets."
	// The headline shape checks must pass on the oldest and newest
	// Table-II platforms, not just the Pixel 3.
	for _, name := range []string{"Snapdragon 835", "Snapdragon 865"} {
		p, err := soc.PlatformByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Platform: p, Seed: 42, Runs: 10}
		for _, id := range []string{"fig5", "fig8", "fig11"} {
			e, _ := ByID(id)
			res := e.Run(cfg)
			for _, n := range res.Notes {
				if strings.Contains(n, "FAIL") {
					t.Errorf("%s on %s: %s", id, name, n)
				}
			}
		}
	}
}

func TestFaultToleranceCustomScenario(t *testing.T) {
	cfg := smallCfg()
	base := runID(t, "faults", cfg)
	cfg.Faults = faults.Plan{RPCErrorRate: 0.5, Seed: 3}
	custom := runID(t, "faults", cfg)
	if len(custom.Rows) != len(base.Rows)+1 {
		t.Fatalf("custom plan must add exactly one scenario row: %d vs %d",
			len(custom.Rows), len(base.Rows))
	}
	last := custom.Rows[len(custom.Rows)-1]
	if last[0] != "custom (-faults)" {
		t.Fatalf("last row = %v", last)
	}
	// The fixed scenarios must not be perturbed by the custom plan.
	for i, row := range base.Rows {
		for j := range row {
			if custom.Rows[i][j] != row[j] {
				t.Fatalf("fixed scenario %d drifted under a custom plan: %v vs %v",
					i, custom.Rows[i], row)
			}
		}
	}
}
