package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// TestEngineStateRoundTrip pins the durability boundary: export mid-run,
// restore into a fresh engine, and both the exported documents and the
// continued executions must agree bit-for-bit.
func TestEngineStateRoundTrip(t *testing.T) {
	run := func() *Engine {
		e := NewEngine(2, twoMachineCost, NewOnlineMWFLazy())
		if err := e.Add(0, r(0, 1), r(1, 1), r(1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := e.Add(3, r(0, 1), r(2, 1), r(1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := e.Decide(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.AdvanceTo(r(1, 4)); err != nil {
			t.Fatal(err)
		}
		if err := e.Add(5, r(1, 8), r(1, 2), r(1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := e.Decide(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.AdvanceTo(e.NextEvent()); err != nil {
			t.Fatal(err)
		}
		return e
	}
	orig := run()
	st := orig.ExportState()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back EngineState
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	pol := NewOnlineMWFLazy()
	restored := NewEngine(2, twoMachineCost, pol)
	if err := restored.RestoreState(&back); err != nil {
		t.Fatal(err)
	}
	planBlob, err := json.Marshal(orig.Policy().(*OnlineMWF).ExportPlanState())
	if err != nil {
		t.Fatal(err)
	}
	var plan MWFPlanState
	if err := json.Unmarshal(planBlob, &plan); err != nil {
		t.Fatal(err)
	}
	pol.RestorePlanState(&plan)

	if !reflect.DeepEqual(orig.ExportState(), restored.ExportState()) {
		t.Fatalf("restored export differs:\norig: %s\nrest: %s",
			mustJSON(orig.ExportState()), mustJSON(restored.ExportState()))
	}

	// Drive both engines to quiescence in lockstep; every event time,
	// completion, and trace piece must match exactly.
	for {
		if err := orig.Decide(); err != nil {
			t.Fatal(err)
		}
		if err := restored.Decide(); err != nil {
			t.Fatal(err)
		}
		a, b := orig.NextEvent(), restored.NextEvent()
		if (a == nil) != (b == nil) {
			t.Fatalf("next-event divergence: %v vs %v", a, b)
		}
		if a == nil {
			break
		}
		if a.Cmp(b) != 0 {
			t.Fatalf("next-event times differ: %v vs %v", a.RatString(), b.RatString())
		}
		if _, err := orig.AdvanceTo(a); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.AdvanceTo(b); err != nil {
			t.Fatal(err)
		}
	}
	if orig.CompletedCount() != 3 || restored.CompletedCount() != 3 {
		t.Fatalf("completions: %d vs %d, want 3", orig.CompletedCount(), restored.CompletedCount())
	}
	ea, eb := orig.ExportState(), restored.ExportState()
	// Solver decision counts can differ only through the plan cache; with the
	// plan restored they must not.
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("final states differ:\norig: %s\nrest: %s", mustJSON(ea), mustJSON(eb))
	}
}

func TestRestoreStateRejectsBadInput(t *testing.T) {
	e := NewEngine(2, twoMachineCost, NewSRPT())
	if err := e.RestoreState(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	st := &EngineState{Now: r(0, 1), Jobs: []JobState{{ID: 1}}}
	if err := e.RestoreState(st); err == nil {
		t.Fatal("job with missing fields accepted")
	}
	if err := e.Add(0, r(0, 1), r(1, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreState(&EngineState{Now: r(0, 1)}); err == nil {
		t.Fatal("restore into non-fresh engine accepted")
	}
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// legacyPlanDoc is an MWFPlanState document in the format older versions
// wrote: besides the plan it carries the residual fingerprint (known,
// solveAt, solveRem) the plan cache no longer keeps. It was exported at
// t=7/24 from the scenario midPlanEngine replays, mid-way through the plan
// solved at t=1/4.
const legacyPlanDoc = `{"plan":[{"machine":0,"job":3,"start":"1/4","end":"1/3"},{"machine":1,"job":3,"start":"1/4","end":"1/3"},{"machine":0,"job":0,"start":"1/3","end":"2/3"},{"machine":1,"job":0,"start":"1/3","end":"2/3"},{"machine":0,"job":5,"start":"2/3","end":"35/24"},{"machine":1,"job":5,"start":"2/3","end":"37/48"}],"known":[0,3,5],"solveAt":"1/4","solveRem":[{"id":0,"remaining":"1"},{"id":3,"remaining":"1/4"},{"id":5,"remaining":"1"}],"solves":2}`

// midPlanEngine runs the lazy policy through two arrivals (the second one
// re-solving at t=1/4) and stops half-way to the next plan boundary.
func midPlanEngine(t *testing.T) (*Engine, *OnlineMWF) {
	t.Helper()
	p := NewOnlineMWFLazy()
	e := NewEngine(2, twoMachineCost, p)
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%v (inner: %v)", err, p.Err())
		}
	}
	step(e.Add(0, r(0, 1), r(1, 1), r(1, 1)))
	step(e.Add(3, r(0, 1), r(2, 1), r(1, 1)))
	step(e.Decide())
	_, err := e.AdvanceTo(r(1, 4))
	step(err)
	step(e.Add(5, r(1, 8), r(1, 2), r(1, 1)))
	step(e.Decide())
	_, err = e.AdvanceTo(r(7, 24))
	step(err)
	return e, p
}

// TestRestoreLegacyPlanState restores a plan document that still carries
// the legacy fingerprint keys into a fresh policy over an engine restored
// mid-plan: the next decision must be served from the cache, and the
// continued trace must equal the uninterrupted run's bit for bit.
func TestRestoreLegacyPlanState(t *testing.T) {
	orig, origPol := midPlanEngine(t)
	var plan MWFPlanState
	if err := json.Unmarshal([]byte(legacyPlanDoc), &plan); err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(&plan), mustJSON(origPol.ExportPlanState()); got != want {
		t.Fatalf("legacy plan decodes to %s, the uninterrupted policy holds %s", got, want)
	}
	var st EngineState
	if err := json.Unmarshal([]byte(mustJSON(orig.ExportState())), &st); err != nil {
		t.Fatal(err)
	}
	pol := NewOnlineMWFLazy()
	restored := NewEngine(2, twoMachineCost, pol)
	if err := restored.RestoreState(&st); err != nil {
		t.Fatal(err)
	}
	pol.RestorePlanState(&plan)

	if err := restored.Decide(); err != nil {
		t.Fatalf("%v (inner: %v)", err, pol.Err())
	}
	if pol.CacheHits() != 1 || pol.Solves() != 2 {
		t.Fatalf("first decision after restore: cacheHits=%d solves=%d, want a cache hit (1/2)", pol.CacheHits(), pol.Solves())
	}
	if err := orig.Decide(); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{orig, restored} {
		for e.Live() > 0 {
			next := e.NextEvent()
			if next == nil {
				t.Fatal("engine stalled")
			}
			if _, err := e.AdvanceTo(next); err != nil {
				t.Fatal(err)
			}
			if err := e.Decide(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := mustJSON(orig.ExportState()), mustJSON(restored.ExportState()); a != b {
		t.Fatalf("restored run diverged:\norig: %s\nrest: %s", a, b)
	}
	if a, b := mustJSON(origPol.ExportPlanState()), mustJSON(pol.ExportPlanState()); a != b {
		t.Fatalf("plan caches diverged:\norig: %s\nrest: %s", a, b)
	}
	// The trace the version that wrote legacyPlanDoc executed, with the same
	// 2 solves and 4 cache hits.
	want := []string{
		"0 3 0 1/3 1/3", "1 3 0 1/3 2/3",
		"0 0 1/3 2/3 1/3", "1 0 1/3 2/3 2/3",
		"0 5 2/3 35/24 19/24", "1 5 2/3 37/48 5/24",
	}
	var got []string
	for _, pc := range restored.Schedule().Pieces {
		got = append(got, fmt.Sprintf("%d %d %s %s %s", pc.Machine, pc.Job, pc.Start.RatString(), pc.End.RatString(), pc.Fraction.RatString()))
	}
	if !reflect.DeepEqual(got, want) || pol.Solves() != 2 || pol.CacheHits() != 4 {
		t.Fatalf("restored run: trace %q, solves=%d hits=%d; want %q, 2/4", got, pol.Solves(), pol.CacheHits(), want)
	}
}
