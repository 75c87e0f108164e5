package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceJSONLRoundTrip(t *testing.T) {
	in := []TraceEvent{{
		Batch: 3, Pattern: "B(sudden)", Strategy: "coherent-experience-clustering",
		ShiftDistance: 4.2, Severity: 9.9, NearestHistory: -1,
		EnsembleWeights: []float64{0.7, 0.3},
		Stages: []StageTiming{
			{Stage: "shift_detect", Micros: 120},
			{Stage: "cluster", Micros: 800},
		},
		Accuracy: 0.5,
	}, {Batch: 4, Pattern: "A1(directional)", Strategy: "multi-granularity", Accuracy: -1}}

	var sb strings.Builder
	if err := WriteJSONL(&sb, in); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var events []TraceEvent
	for sc.Scan() {
		var ev TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("decoded %d events", len(events))
	}
	if events[0].Batch != 3 || events[0].Strategy != "coherent-experience-clustering" {
		t.Errorf("event 0 = %+v", events[0])
	}
	if len(events[0].Stages) != 2 || events[0].Stages[1].Stage != "cluster" {
		t.Errorf("stages = %+v", events[0].Stages)
	}
	if events[1].Pattern != "A1(directional)" || events[1].Accuracy != -1 {
		t.Errorf("event 1 = %+v", events[1])
	}
}
