package eval

import (
	"strings"
	"sync"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/geo"
	"hoiho/internal/synth"
)

// The test world is expensive enough to share across tests.
var (
	worldOnce sync.Once
	testWorld *synth.World
	testRes   *core.Result
)

func sharedWorld(t *testing.T) (*synth.World, *core.Result) {
	t.Helper()
	worldOnce.Do(func() {
		w, res, err := RunOne("ipv4-aug2020", 1.0, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		testWorld, testRes = w, res
	})
	if testWorld == nil {
		t.Fatal("world init failed")
	}
	return testWorld, testRes
}

func TestWithin(t *testing.T) {
	a := geo.LatLong{Lat: 39.0438, Long: -77.4874}
	b := geo.LatLong{Lat: 39.0438, Long: -77.9} // ~36km west
	c := geo.LatLong{Lat: 39.0438, Long: -78.5} // ~88km west
	if !Within(a, a) || !Within(a, b) {
		t.Error("nearby points should be within 40km")
	}
	if Within(a, c) {
		t.Error("distant points should not be within 40km")
	}
}

func TestMethodResultMath(t *testing.T) {
	m := MethodResult{TP: 8, FP: 1, FN: 1}
	if m.Total() != 10 || m.TPPct() != 80 || m.FPPct() != 10 || m.FNPct() != 10 {
		t.Errorf("percentages wrong: %+v", m)
	}
	if ppv := m.PPV(); ppv < 0.88 || ppv > 0.89 {
		t.Errorf("PPV = %f", ppv)
	}
	var z MethodResult
	if z.PPV() != 0 || z.TPPct() != 0 {
		t.Error("zero result should yield zeros")
	}
	z.Add(m)
	if z.TP != 8 {
		t.Error("Add failed")
	}
}

func TestTable1(t *testing.T) {
	w, _ := sharedWorld(t)
	t1 := ComputeTable1([]*synth.World{w})
	if len(t1.Rows) != 1 {
		t.Fatal("want one row")
	}
	r := t1.Rows[0]
	if r.Routers == 0 || r.WithHostname == 0 || r.WithRTT == 0 || r.VPs == 0 {
		t.Errorf("row has zeros: %+v", r)
	}
	if r.WithHostname > r.Routers || r.WithRTT > r.Routers {
		t.Errorf("counts exceed total: %+v", r)
	}
	// Roughly 70-90% of routers respond (DelayModel defaults).
	frac := float64(r.WithRTT) / float64(r.Routers)
	if frac < 0.6 || frac > 0.99 {
		t.Errorf("RTT fraction = %.2f", frac)
	}
	if !strings.Contains(t1.Format(), "ipv4-aug2020") {
		t.Error("Format should include world name")
	}
}

func TestTable2And3(t *testing.T) {
	w, res := sharedWorld(t)
	t2 := ComputeTable2([]*synth.World{w}, []*core.Result{res})
	r := t2.Rows[0]
	if r.WithApparentGeohint == 0 || r.Geolocated == 0 {
		t.Errorf("coverage zeros: %+v", r)
	}
	if r.Geolocated > r.WithApparentGeohint {
		t.Errorf("geolocated %d > with geohint %d", r.Geolocated, r.WithApparentGeohint)
	}
	t3 := ComputeTable3([]*synth.World{w}, []*core.Result{res})
	r3 := t3.Rows[0]
	if r3.Total() == 0 || r3.Good == 0 {
		t.Errorf("classification zeros: %+v", r3)
	}
	if !strings.Contains(t2.Format(), "%") || !strings.Contains(t3.Format(), "good") {
		t.Error("formatting broken")
	}
}

func TestTable4(t *testing.T) {
	_, res := sharedWorld(t)
	t4 := ComputeTable4(res)
	if t4.GoodTotal == 0 || len(t4.Cells) == 0 {
		t.Fatalf("table4 empty: %+v", t4)
	}
	sum := 0
	for _, c := range t4.Cells {
		sum += c.Good
	}
	if sum < t4.GoodTotal {
		t.Errorf("cells cover %d < %d good NCs", sum, t4.GoodTotal)
	}
	out := t4.Format()
	if !strings.Contains(out, "iata") && !strings.Contains(out, "clli") {
		t.Errorf("format missing hint types:\n%s", out)
	}
}

func TestTable5(t *testing.T) {
	w, res := sharedWorld(t)
	t5 := ComputeTable5(res, w.Dict, 1)
	// The generator invents IATA-style custom hints, so some should be
	// learned.
	if len(t5.Rows) == 0 {
		t.Fatal("no learned 3-letter hints")
	}
	for _, r := range t5.Rows {
		if len(r.Hint) != 3 || r.Suffixes < 1 || r.NearestIATA == "" {
			t.Errorf("malformed row: %+v", r)
		}
	}
	if !strings.Contains(t5.Format(), t5.Rows[0].Hint) {
		t.Error("format missing hint")
	}
}

func TestTable6(t *testing.T) {
	w, res := sharedWorld(t)
	t6 := ComputeTable6(w, res)
	if t6.Total == 0 {
		t.Fatal("no learned hints validated")
	}
	frac := float64(t6.Correct) / float64(t6.Total)
	// Paper: 78.6% of learned hints verified; our VP density is lower,
	// accept a broad band but demand clear signal.
	if frac < 0.5 {
		t.Errorf("learned hints mostly wrong: %d/%d", t6.Correct, t6.Total)
	}
	if !strings.Contains(t6.Format(), "overall") {
		t.Error("format missing overall row")
	}
}

func TestFig5(t *testing.T) {
	w, _ := sharedWorld(t)
	f := ComputeFig5(w)
	if f.MedianPing <= 0 || f.MedianTrace <= 0 {
		t.Fatalf("medians: %+v", f)
	}
	// Traceroute RTTs must be substantially larger than ping RTTs — the
	// paper's headline (4.25x RTT, 18x area by πr²).
	if f.MedianTrace < 1.5*f.MedianPing {
		t.Errorf("trace median %.1f not >> ping median %.1f", f.MedianTrace, f.MedianPing)
	}
	if f.AreaRatio < 2 {
		t.Errorf("area ratio %.1f too small", f.AreaRatio)
	}
	if f.FracOneTraceVP <= 0.2 || f.FracOneTraceVP >= 0.95 {
		t.Errorf("one-VP fraction = %.2f", f.FracOneTraceVP)
	}
	if f.FracMostVPsPing <= 0.5 {
		t.Errorf("most-VPs fraction = %.2f", f.FracMostVPsPing)
	}
	if !strings.Contains(f.Format(), "fig5a") {
		t.Error("format broken")
	}
}

func TestFig9Shapes(t *testing.T) {
	w, res := sharedWorld(t)
	f := ComputeFig9(w, res)
	if len(f.Suffixes) == 0 {
		t.Fatal("no suffixes evaluated")
	}
	hoiho := f.Overall["hoiho"]
	dropR := f.Overall["drop"]
	hlocR := f.Overall["hloc"]
	undnsR := f.Overall["undns"]
	if hoiho.Total() == 0 {
		t.Fatal("no hostnames evaluated")
	}
	// The ablation's hoiho-only scorer must select and score the same
	// cases as the full comparison.
	if got := ComputeFig9Hoiho(w, res); got != hoiho {
		t.Errorf("ComputeFig9Hoiho = %+v, Fig9 hoiho overall = %+v", got, hoiho)
	}
	// The paper's ordering: hoiho > hloc > drop on TP%.
	if hoiho.TPPct() <= dropR.TPPct() {
		t.Errorf("hoiho TP %.1f%% should beat drop %.1f%%", hoiho.TPPct(), dropR.TPPct())
	}
	if hoiho.TPPct() <= hlocR.TPPct() {
		t.Errorf("hoiho TP %.1f%% should beat hloc %.1f%%", hoiho.TPPct(), hlocR.TPPct())
	}
	// Hoiho should correctly geolocate the large majority.
	if hoiho.TPPct() < 75 {
		t.Errorf("hoiho TP%% = %.1f, want >= 75", hoiho.TPPct())
	}
	// undns: highest precision (hand-curated) but incomplete coverage.
	if undnsR.PPV() < hoiho.PPV()-0.05 {
		t.Errorf("undns PPV %.2f should rival hoiho %.2f", undnsR.PPV(), hoiho.PPV())
	}
	if undnsR.FNPct() <= hoiho.FNPct() {
		t.Errorf("undns FN %.1f%% should exceed hoiho FN %.1f%% (stale partial DB)",
			undnsR.FNPct(), hoiho.FNPct())
	}
	out := f.Format()
	if !strings.Contains(out, "OVERALL") || !strings.Contains(out, "PPV") {
		t.Error("format broken")
	}
}

func TestFig10(t *testing.T) {
	w, res := sharedWorld(t)
	f := ComputeFig10Multi([]*synth.World{w}, []*core.Result{res})
	if f.ClosestVPRTT.N == 0 {
		t.Fatal("no learned hints")
	}
	if f.AirportKm.N > 0 {
		// Learned IATA hints that collide with real codes should mostly
		// be far from the colliding airport (paper: 50% >= 7600km).
		if f.AirportKm.Quantiles[50] < 100 {
			t.Errorf("median collision distance %.0fkm suspiciously small",
				f.AirportKm.Quantiles[50])
		}
	}
	if !strings.Contains(f.Format(), "fig10a") {
		t.Error("format broken")
	}
}

func TestFig11(t *testing.T) {
	w, res := sharedWorld(t)
	f := ComputeFig11Multi([]*synth.World{w}, []*core.Result{res})
	if len(f.Buckets) != 4 {
		t.Fatalf("buckets = %d", len(f.Buckets))
	}
	all := f.Buckets[3]
	if all.Total == 0 {
		t.Fatal("no learned hints")
	}
	// Correctness should not increase as the RTT bound loosens.
	for i := 1; i < len(f.Buckets); i++ {
		if f.Buckets[i].Total < f.Buckets[i-1].Total {
			t.Errorf("cumulative totals must be monotone: %+v", f.Buckets)
		}
	}
	if !strings.Contains(f.Format(), "fig11") {
		t.Error("format broken")
	}
}

func TestAblation(t *testing.T) {
	w, res := sharedWorld(t)
	noLearn, err := RunWorldNoLearn(w)
	if err != nil {
		t.Fatal(err)
	}
	a := ComputeAblation(w, res, noLearn)
	// Learning custom hints must improve correctness (paper: 94.0% vs
	// 82.4%).
	if a.With.TPPct() <= a.Without.TPPct() {
		t.Errorf("learning should improve TP%%: with=%.1f without=%.1f",
			a.With.TPPct(), a.Without.TPPct())
	}
	if !strings.Contains(a.Format(), "with") {
		t.Error("format broken")
	}
}

func TestBuildUndnsCoverage(t *testing.T) {
	w, _ := sharedWorld(t)
	full := BuildUndnsRuleset(w, 1.0, 1)
	partial := BuildUndnsRuleset(w, 0.3, 1)
	if full.Suffixes() == 0 {
		t.Fatal("no rules built")
	}
	if partial.Suffixes() > full.Suffixes() {
		t.Error("partial coverage cannot exceed full")
	}
}

func TestRunSuiteScaling(t *testing.T) {
	s, err := Run([]string{"ipv6-nov2020"}, 0.5, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Worlds) != 1 || len(s.Results) != 1 {
		t.Fatal("suite size wrong")
	}
	if _, err := Run([]string{"bogus"}, 1, core.DefaultConfig()); err == nil {
		t.Error("unknown preset should error")
	}
}
