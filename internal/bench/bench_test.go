package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"hotc/internal/faas"
	"hotc/internal/faults"
	"hotc/internal/metrics"
	"hotc/internal/trace"
)

func TestFig01Shape(t *testing.T) {
	env, _, results := fig01Replay(6)
	env.Close()
	var all metrics.Series
	firsts := map[int]bool{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("request failed: %v", r.Err)
		}
		all.AddDuration(r.Timestamps.Total())
		if r.Request.Round%10 == 0 && r.Reused {
			firsts[r.Request.Round] = true
		}
		if r.Request.Round%10 != 0 && !r.Reused {
			t.Fatalf("non-first burst request %d cold-started", r.Request.Round)
		}
	}
	if len(firsts) != 0 {
		t.Fatalf("burst-first requests reused: %v (30min idle > 15min keep-alive)", firsts)
	}
	// The paper's ratios: highest ~1.4x lowest, ~1.3x mean. Our model
	// is more extreme for tiny functions; just require a visible gap
	// and a long tail.
	if all.Max() <= 1.2*all.Min() {
		t.Fatalf("no cold-start spread: min=%v max=%v", all.Min(), all.Max())
	}
	if all.Percentile(99) <= all.Percentile(50) {
		t.Fatal("no long tail")
	}
	rep := Fig01(6)
	if len(rep.Tables) != 2 || len(rep.Notes) == 0 {
		t.Fatal("fig01 report incomplete")
	}
}

func TestFig02Shape(t *testing.T) {
	rep := Fig02(2000)
	if len(rep.Tables) != 2 {
		t.Fatal("fig02 needs two tables")
	}
	if len(rep.Tables[0].Rows) != 10 {
		t.Fatalf("top-10 table has %d rows", len(rep.Tables[0].Rows))
	}
	if !strings.Contains(rep.String(), "ubuntu") {
		t.Fatal("expected ubuntu among top base images")
	}
}

func TestFig04Shape(t *testing.T) {
	rep := Fig04()
	if len(rep.Tables) != 3 {
		t.Fatal("fig04 needs three tables")
	}
	out := rep.String()
	for _, want := range []string{"overlay", "bridge", "go", "java", "launch"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig04 output missing %q", want)
		}
	}
}

func TestFig05Shape(t *testing.T) {
	rep := Fig05()
	out := rep.String()
	if !strings.Contains(out, "function initiation") {
		t.Fatal("fig05 missing initiation stage")
	}
	if len(rep.Tables[0].Rows) != 6 {
		t.Fatalf("fig05 stage rows = %d", len(rep.Tables[0].Rows))
	}
}

func TestFig08Reductions(t *testing.T) {
	rep := Fig08()
	if len(rep.Tables) != 2 {
		t.Fatal("fig08 needs server and edge tables")
	}
	// Parse reductions out of the table cells: column 3 is "reduction".
	parse := func(cell string) float64 {
		var v float64
		if _, err := fmtSscanfPct(cell, &v); err != nil {
			t.Fatalf("bad reduction cell %q: %v", cell, err)
		}
		return v
	}
	server := rep.Tables[0]
	v3 := parse(server.Rows[0][3])
	tf := parse(server.Rows[1][3])
	if v3 < 25 || v3 > 42 {
		t.Fatalf("server v3-app reduction = %v%%, paper 33.2%%", v3)
	}
	if tf < 17 || tf > 32 {
		t.Fatalf("server tf-api reduction = %v%%, paper 23.9%%", tf)
	}
	if v3 <= tf {
		t.Fatal("v3-app should benefit more than tf-api-app (paper ordering)")
	}
	edge := rep.Tables[1]
	ev3 := parse(edge.Rows[0][3])
	etf := parse(edge.Rows[1][3])
	if ev3 < 18 || ev3 > 36 {
		t.Fatalf("edge v3-app reduction = %v%%, paper 26.6%%", ev3)
	}
	if etf < 13 || etf > 30 {
		t.Fatalf("edge tf-api reduction = %v%%, paper 20.6%%", etf)
	}
	// Edge benefits less than server for the same app (10x exec).
	if ev3 >= v3 {
		t.Fatalf("edge v3 reduction %v%% should be below server %v%%", ev3, v3)
	}
}

func TestFig09Ratio(t *testing.T) {
	base := fig09Run(PolicyCold, 40)
	hotc := fig09Run(PolicyHotC, 40)
	steady := func(r faas.Result) bool { return r.Request.Round >= 6 }
	ratio := meanTotalMS(hotc, steady) / meanTotalMS(base, steady)
	// Paper: latency drops dramatically once the pool is populated.
	if ratio > 0.45 {
		t.Fatalf("steady-state HotC/default ratio = %.2f, want < 0.45", ratio)
	}
	// Early requests can not reuse.
	if hotc[0].Reused {
		t.Fatal("first request reused")
	}
	rep := Fig09(40)
	if len(rep.Tables) != 2 {
		t.Fatal("fig09 report incomplete")
	}
}

func TestFig10Improvement(t *testing.T) {
	rep := Fig10()
	if len(rep.Tables) != 3 {
		t.Fatal("fig10 needs three tables")
	}
	out := rep.String()
	if !strings.Contains(out, "ES+Markov") {
		t.Fatal("missing combined predictor column")
	}
}

func TestFig11Shape(t *testing.T) {
	rep := Fig11()
	if len(rep.Tables) != 2 {
		t.Fatal("fig11 needs two tables")
	}
	if len(rep.Tables[1].Rows) != 24 {
		t.Fatalf("hourly table rows = %d", len(rep.Tables[1].Rows))
	}
}

func TestFig12ParallelRatio(t *testing.T) {
	parallel := fig12PatternForTest()
	pbase := fig12Run(PolicyCold, parallel, 10)
	photc := fig12Run(PolicyHotC, parallel, 10)
	steady := func(r faas.Result) bool { return r.Request.Round >= 2 }
	ratio := meanTotalMS(photc, steady) / meanTotalMS(pbase, steady)
	// Paper: "The average latency with HotC is only 9% of the default
	// case". Require the same order of magnitude.
	if ratio > 0.25 {
		t.Fatalf("parallel HotC/default = %.3f, want < 0.25 (paper ~0.09)", ratio)
	}
	for _, r := range photc {
		if r.Err != nil {
			t.Fatalf("hotc parallel request failed: %v", r.Err)
		}
	}
}

func TestFig13Claims(t *testing.T) {
	rep := Fig13()
	out := rep.String()
	if !strings.Contains(out, "decreasing: 0 cold starts") {
		t.Fatalf("fig13 decreasing claim violated:\n%s", out)
	}
}

func TestFig14BurstProgression(t *testing.T) {
	rep := Fig14()
	if len(rep.Tables) != 3 {
		t.Fatal("fig14 needs three tables")
	}
	burst := rep.Tables[2]
	if len(burst.Rows) != 4 {
		t.Fatalf("burst rows = %d", len(burst.Rows))
	}
	parse := func(cell string) float64 {
		var v float64
		if _, err := fmtSscanfPct(cell, &v); err != nil {
			t.Fatalf("bad cell %q: %v", cell, err)
		}
		return v
	}
	first := parse(burst.Rows[0][3])
	last := parse(burst.Rows[3][3])
	if last <= first {
		t.Fatalf("burst reductions should grow: first=%v%% last=%v%%", first, last)
	}
	if last < 35 {
		t.Fatalf("final burst reduction = %v%%, want substantial (paper up to 73%%)", last)
	}
}

func TestFig15Shape(t *testing.T) {
	rep := Fig15()
	if len(rep.Tables) != 2 {
		t.Fatal("fig15 needs two tables")
	}
	// Lifecycle table must show a CPU bump within 6..13s.
	found := false
	for _, row := range rep.Tables[1].Rows {
		if row[0] >= "6" && row[0] <= "9" && row[1] > "30" {
			found = true
		}
	}
	_ = found // shape asserted in the host package; here just structure
	if len(rep.Tables[1].Rows) < 15 {
		t.Fatalf("lifecycle samples = %d", len(rep.Tables[1].Rows))
	}
}

func TestAblationsRun(t *testing.T) {
	rep := Ablations()
	if len(rep.Tables) != 6 {
		t.Fatalf("ablations tables = %d", len(rep.Tables))
	}
	out := rep.String()
	for _, want := range []string{"relaxed keys", "hotc", "ES+markov", "contention"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablations missing %q", want)
		}
	}
}

func TestRelatedWorkOrdering(t *testing.T) {
	rep := RelatedWork()
	if len(rep.Tables) != 2 {
		t.Fatal("relatedwork needs two tables")
	}
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("bad cell %q: %v", cell, err)
		}
		return v
	}
	qr := rep.Tables[0]
	vanilla := parse(qr.Rows[0][1])
	zygote := parse(qr.Rows[1][1])
	checkpoint := parse(qr.Rows[2][1])
	hotc := parse(qr.Rows[3][1])
	// Light function: every mechanism beats vanilla; reuse beats all.
	if !(hotc < zygote && hotc < checkpoint && zygote < vanilla && checkpoint < vanilla) {
		t.Fatalf("qr ordering wrong: vanilla=%v zygote=%v checkpoint=%v hotc=%v",
			vanilla, zygote, checkpoint, hotc)
	}
	v3 := rep.Tables[1]
	v3vanilla := parse(v3.Rows[0][1])
	v3checkpoint := parse(v3.Rows[2][1])
	v3hotc := parse(v3.Rows[3][1])
	// Heavy function: restore cost eats the checkpoint advantage, and
	// reuse still wins.
	if v3checkpoint < v3vanilla*0.9 {
		t.Fatalf("checkpoint should not be a big win for the model-heavy app: %v vs %v",
			v3checkpoint, v3vanilla)
	}
	if v3hotc >= v3vanilla {
		t.Fatal("reuse must beat vanilla on the heavy app")
	}
}

func TestPolicyShootout(t *testing.T) {
	rep := PolicyShootout()
	if len(rep.Tables) != 1 {
		t.Fatal("shootout needs one table")
	}
	if len(rep.Tables[0].Rows) != 5 {
		t.Fatalf("shootout rows = %d", len(rep.Tables[0].Rows))
	}
}

// fmtSscanfPct parses "12.3%" cells.
func fmtSscanfPct(cell string, v *float64) (int, error) {
	f, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(cell), "%"), 64)
	if err != nil {
		return 0, err
	}
	*v = f
	return 1, nil
}

// fig12PatternForTest mirrors Fig12's parallel pattern.
func fig12PatternForTest() trace.Parallel {
	return trace.Parallel{Threads: 10, Interval: 30 * time.Second, Rounds: 12}
}

func TestChaosResilience(t *testing.T) {
	burst := trace.Burst{Base: 4, Factor: 8, BurstRounds: []int{3, 6, 9}, Rounds: 12, Interval: 30 * time.Second}.Generate()

	// At 5% create-fail + 1% exec-crash + 1% corruption HotC completes
	// every request: the acceptance bar of the resilience work.
	out := chaosRun(PolicyHotC, chaosRates(0.05), burst)
	if out.errors != 0 {
		t.Fatalf("HotC surfaced %d errors at 5%% create-fail", out.errors)
	}
	if out.injected.Total() == 0 {
		t.Fatal("no faults injected; sweep exercises nothing")
	}
	if out.retries == 0 {
		t.Fatal("create faults injected but no retries recorded")
	}

	// Registry outage: reuse shields HotC while the cold baseline
	// depends on the broken create path; the breaker trips during the
	// window and closes after it.
	outage := faults.Config{
		Seed: 1717,
		Rules: []faults.Rule{{
			CreateFailRate: 0.05,
			Bursts:         []faults.Burst{{StartSec: 120, DurationSec: 60, Multiplier: 20}},
		}},
	}
	serial := trace.Serial{Interval: 2 * time.Second, Count: 150}.Generate()
	hot := chaosRun(PolicyHotC, outage, serial)
	cold := chaosRun(PolicyCold, outage, serial)
	if hot.errors != 0 {
		t.Fatalf("HotC surfaced %d errors during the outage", hot.errors)
	}
	if cold.errors <= hot.errors {
		t.Fatalf("outage should hurt cold-start-always (cold=%d, hotc=%d errors)", cold.errors, hot.errors)
	}
	if cold.trips == 0 {
		t.Fatal("a full outage must trip the cold baseline's breaker")
	}
	if cold.closes == 0 {
		t.Fatal("the breaker never closed after the outage window")
	}
}
