package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
)

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json's metric lists and
// workloads to the ones this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, tc := range []struct {
		list []struct{ Name, Unit, Better string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range tc.list {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("BENCHMARK.json lists %v, program reports %v", got, tc.want)
		}
	}
}

func TestParseCPUList(t *testing.T) {
	for in, want := range map[string][]int{"0-1": {0, 1}, "3": {3}, "0,2-3": {0, 2, 3}} {
		got, err := parseCPUList(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseCPUList(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "a", "3-1", "1-"} {
		if _, err := parseCPUList(bad); err == nil {
			t.Errorf("parseCPUList(%q) accepted", bad)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		a, err := wl.build(newGen(7, wl.name), 20, 20)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wl.build(newGen(7, wl.name), 20, 20)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.open {
			if string(a.open[i].body) != string(b.open[i].body) || a.open[i].key != b.open[i].key {
				t.Fatalf("%s: open arrival %d differs between builds with one seed", wl.name, i)
			}
		}
		c, err := wl.build(newGen(8, wl.name), 20, 20)
		if err != nil {
			t.Fatal(err)
		}
		if string(c.open[0].body) == string(a.open[0].body) && string(c.open[1].body) == string(a.open[1].body) {
			t.Errorf("%s: seeds 7 and 8 give the same inputs", wl.name)
		}
	}
	g := newGen(7, "x")
	if s1, s2 := schedule(g, 100, time.Second), schedule(g, 100, time.Second); !reflect.DeepEqual(s1, s2) {
		t.Error("one seed gave two schedules")
	}
}

func TestOpenLatenciesCountFailuresAsSlowest(t *testing.T) {
	ph := &phase{window: time.Second}
	for i := 0; i < 1000; i++ {
		ph.ops = append(ph.ops, op{ok: i >= 15, lat: time.Millisecond, due: time.Duration(i) * time.Millisecond})
	}
	m := &measurement{open: []*phase{ph}}
	p50, p99, n, w, _ := m.openLatencies()
	if math.Abs(p50-1) > 1e-9 || !math.IsInf(p99, 1) || n != 1000 || w != 1 {
		t.Errorf("p50 %v p99 %v arrivals %d windows %d; want 1, +Inf, 1000, 1", p50, p99, n, w)
	}
	for i := range ph.ops {
		ph.ops[i].ok = true
		ph.ops[i].lat = time.Duration(i+1) * time.Millisecond
	}
	// With no steal every slice is as quiet as the next, so the p99 takes
	// all ten slices in one window, and the p50 the first quarter of them
	// in three windows of 100, whose middle one holds 101..200 ms.
	if p50, p99, _, _, _ := m.openLatencies(); p99 < 985 || p99 > 996 || p50 != 151 {
		t.Errorf("p50, p99 of 1..1000 ms = %v, %v; want 151, about 990", p50, p99)
	}
}

func TestOpenLatenciesQuietSlicesAndWindows(t *testing.T) {
	// Twelve one-second rounds of 1000 arrivals at 1 ms. Host steal is high
	// during round 0, whose arrivals took 100 ms, and nil elsewhere; round
	// 1 took 50 ms without showing steal, as a GC cycle might.
	t0 := time.Now()
	var open []*phase
	for r := 0; r < 12; r++ {
		ph := &phase{window: time.Second, start: t0.Add(time.Duration(r) * time.Second)}
		lat := time.Millisecond
		switch r {
		case 0:
			lat = 100 * time.Millisecond
		case 1:
			lat = 50 * time.Millisecond
		}
		for i := 0; i < 1000; i++ {
			ph.ops = append(ph.ops, op{ok: true, lat: lat, due: time.Duration(i) * time.Millisecond})
		}
		open = append(open, ph)
	}
	steal := []stealSample{{at: t0}, {at: t0.Add(time.Second), host: hostCPU{steal: 50, total: 100}}, {at: t0.Add(12 * time.Second), host: hostCPU{steal: 50, total: 1200}}}
	m := &measurement{open: open, steal: steal}
	p50, p99, n, w, st := m.openLatencies()
	// A quarter of 12000 arrivals is 3000: the three quietest slices,
	// rounds 1 to 3 in stable order, in three windows of 1000, whose
	// median leaves round 1 out.
	if n != 3000 || w != 3 || st != 0 || p50 != 1 || p99 != 1 {
		t.Errorf("arrivals %d windows %d steal %v p50 %v p99 %v; want 3000, 3, 0, 1, 1", n, w, st, p50, p99)
	}
}

func TestCanonicalPayload(t *testing.T) {
	want := `{"x":1,"cached":false}`
	for _, body := range []string{want + "\n", `{"x":1,"cached":true}` + "\n", `{"x":1,"cached":false,"coalesced":true}` + "\n"} {
		got, err := canonicalPayload([]byte(body))
		if err != nil || string(got) != want {
			t.Errorf("canonicalPayload(%q) = %q, %v", body, got, err)
		}
	}
	if _, err := canonicalPayload([]byte(`{"x":1,"degraded":true}`)); err == nil {
		t.Error("accepted a payload without a serving-flags tail")
	}
}

func TestCheckPlanRejectsBrokenPlans(t *testing.T) {
	exp := expect{fingerprint: "f", class: "independent", m: 2, n: 2}
	good := func() *service.PlanResponse {
		return &service.PlanResponse{Fingerprint: "f", Class: "independent", M: 2, N: 2, TStar: 2, LowerBound: 1, Length: 3,
			Machines: [][]service.PlanRun{{{Job: 0, Steps: 2}}, {{Job: 1, Steps: 3}}}}
	}
	if err := checkPlan(good(), &exp); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	for name, breakIt := range map[string]func(p *service.PlanResponse){
		"fingerprint": func(p *service.PlanResponse) { p.Fingerprint = "g" },
		"t* NaN":      func(p *service.PlanResponse) { p.TStar = math.NaN() },
		"bound":       func(p *service.PlanResponse) { p.LowerBound = 3 },
		"row":         func(p *service.PlanResponse) { p.Length = 2 },
		"unassigned":  func(p *service.PlanResponse) { p.Machines[1][0].Job = 0 },
		"steps":       func(p *service.PlanResponse) { p.Machines[0][0].Steps = 0 },
		"job range":   func(p *service.PlanResponse) { p.Machines[0][0].Job = 2 },
		"degraded":    func(p *service.PlanResponse) { p.Degraded = true },
	} {
		p := good()
		breakIt(p)
		if err := checkPlan(p, &exp); err == nil {
			t.Errorf("%s: broken plan accepted", name)
		}
	}
}
