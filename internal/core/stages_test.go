package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestDefaultPipelineOrder(t *testing.T) {
	want := []string{
		StageIngest, StageCompress, StageReconstruct, StageWindow,
		StageTrain, StageForecast, StageAnalyze,
	}
	if got := DefaultPipeline().StageNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stage order %v, want %v", got, want)
	}
}

func TestPipelineInsert(t *testing.T) {
	p := DefaultPipeline()
	noop := func(rc *RunContext, st *pipelineState) error { return nil }
	if err := p.InsertAfter(StageReconstruct, Stage{Name: "audit", Run: noop}); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertBefore(StageIngest, Stage{Name: "warmup", Run: noop}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"warmup", StageIngest, StageCompress, StageReconstruct, "audit",
		StageWindow, StageTrain, StageForecast, StageAnalyze,
	}
	if got := p.StageNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stage order after inserts %v, want %v", got, want)
	}

	if err := p.InsertAfter("no-such-stage", Stage{Name: "x", Run: noop}); err == nil {
		t.Fatal("insert after a missing stage did not fail")
	}
	if err := p.InsertBefore(StageTrain, Stage{Name: "audit", Run: noop}); err == nil {
		t.Fatal("duplicate stage name did not fail")
	}
	if err := p.InsertBefore(StageTrain, Stage{Name: "nil-run"}); err == nil {
		t.Fatal("stage without a Run function did not fail")
	}
}

// TestPipelineRunsInsertedStage drives a custom pipeline directly: stages
// run in order, the inserted stage sees the state earlier stages built, and
// its wall clock lands in the timing accumulator.
func TestPipelineRunsInsertedStage(t *testing.T) {
	p := NewPipeline(
		Stage{Name: "a", Run: func(rc *RunContext, st *pipelineState) error {
			st.name = st.name + "+a"
			return nil
		}},
		Stage{Name: "b", Run: func(rc *RunContext, st *pipelineState) error {
			st.name = st.name + "+b"
			return nil
		}},
	)
	seen := ""
	if err := p.InsertAfter("a", Stage{Name: "probe", Run: func(rc *RunContext, st *pipelineState) error {
		seen = st.name
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	rc := newRunContext(context.Background(), QuickOptions(), p)
	st := &pipelineState{name: "x"}
	if err := p.run(rc, st); err != nil {
		t.Fatal(err)
	}
	if seen != "x+a" || st.name != "x+a+b" {
		t.Fatalf("stage order wrong: probe saw %q, final %q", seen, st.name)
	}
	pt := rc.acc.snapshot(0, p.StageNames())
	if len(pt.Stages) != 3 {
		t.Fatalf("stage timings %v, want 3 entries", pt.Stages)
	}
	for i, name := range []string{"a", "probe", "b"} {
		if pt.Stages[i].Name != name {
			t.Fatalf("timing order %v, want a, probe, b", pt.Stages)
		}
	}
}

func TestPipelineStageErrorNamesStage(t *testing.T) {
	boom := errors.New("boom")
	p := NewPipeline(Stage{Name: "exploding", Run: func(rc *RunContext, st *pipelineState) error {
		return boom
	}})
	rc := newRunContext(context.Background(), QuickOptions(), p)
	err := p.run(rc, &pipelineState{})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "stage exploding") {
		t.Fatalf("err = %v, want wrapped with the stage name", err)
	}
}

func TestPipelineRunHonoursCancellation(t *testing.T) {
	ran := false
	p := NewPipeline(Stage{Name: "never", Run: func(rc *RunContext, st *pipelineState) error {
		ran = true
		return nil
	}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := newRunContext(ctx, QuickOptions(), p)
	if err := p.run(rc, &pipelineState{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("stage ran under a cancelled context")
	}
}

// TestRunGridStageTimings checks a real grid run reports per-stage wall
// clock for the whole default pipeline, in execution order, with time in
// every stage. It computes its own grid: memoised or loaded grids
// legitimately carry the timings of wherever they came from.
func TestRunGridStageTimings(t *testing.T) {
	swapGridCache(t)
	opts := equivalenceOptions()
	opts.Models = []string{"Arima"}
	g, err := RunGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(g.Timings.Stages))
	for i, s := range g.Timings.Stages {
		names[i] = s.Name
		if s.Total <= 0 {
			t.Errorf("stage %s has no recorded time", s.Name)
		}
	}
	if want := DefaultPipeline().StageNames(); !reflect.DeepEqual(names, want) {
		t.Fatalf("stage timing order %v, want %v", names, want)
	}
}
