package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRecorder builds a deterministic recorder: hand-placed events with
// fixed timestamps, covering both worker lanes and the coordinator, ties
// on Start, and every phase the exporters name.
func goldenRecorder() *Recorder {
	rec := NewWithCapacity(2, 8)
	co := rec.Coordinator()
	co.Add(Event{Phase: PhaseOrdering, Start: 0, End: 1500})
	co.Add(Event{Phase: PhaseSSSP, Start: 1500, End: 9000})
	w0, w1 := rec.Lane(0), rec.Lane(1)
	w0.Add(Event{Phase: PhaseIter, Start: 1600, End: 2600, Index: 0})
	w1.Add(Event{Phase: PhaseIter, Start: 1600, End: 3100, Index: 1})
	w0.Add(Event{Phase: PhaseFoldDrain, Start: 2000, End: 2400, Index: 0, Arg: 3})
	w0.Add(Event{Phase: PhaseChunk, Start: 1600, End: 2600, Index: 0, Arg: 2})
	w0.Add(Event{Phase: PhaseWorker, Start: 1550, End: 8700, Index: 2, Arg: 2000})
	w1.Add(Event{Phase: PhaseWorker, Start: 1550, End: 8900, Index: 1, Arg: 1500})
	rec.Stop()
	return rec
}

// TestWriteTraceGolden pins the exporter byte for byte: field ordering,
// number formatting and event ordering are all part of the contract
// (regenerate deliberately with `go test ./internal/obs -run Golden -update`).
func TestWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// traceFile mirrors the subset of the Chrome trace_event format the
// exporter must emit for Perfetto/chrome://tracing to load it.
type traceFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestWriteTraceParsesAndMonotonic: the output is valid JSON in trace
// shape, metadata precedes spans, and span timestamps are non-decreasing.
func TestWriteTraceParsesAndMonotonic(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	metaDone := false
	prevTs := -1.0
	spans := 0
	for k, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			if metaDone {
				t.Fatalf("metadata event %d after spans began", k)
			}
			if e.Name != "process_name" && e.Name != "thread_name" {
				t.Errorf("unexpected metadata %q", e.Name)
			}
		case "X":
			metaDone = true
			spans++
			if e.Ts < prevTs {
				t.Fatalf("span %d ts %.3f earlier than previous %.3f", k, e.Ts, prevTs)
			}
			prevTs = e.Ts
			if e.Dur < 0 {
				t.Errorf("span %d has negative dur %.3f", k, e.Dur)
			}
			if e.Pid != 1 {
				t.Errorf("span %d pid = %d", k, e.Pid)
			}
		default:
			t.Errorf("unexpected ph %q", e.Ph)
		}
	}
	if spans != 8 {
		t.Errorf("%d spans, want 8", spans)
	}
}
