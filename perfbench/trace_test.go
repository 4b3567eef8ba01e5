package main

import (
	"testing"
	"time"

	"facechange/internal/telemetry"
)

// TestGuardedSinkRecordsPanic: a sink that panics on the hub's own drain
// goroutine is recorded as a failure, the run goes on, and the other
// sinks still receive every event.
func TestGuardedSinkRecordsPanic(t *testing.T) {
	var panics panicLog
	var views map[string]int // nil: every write panics
	bad := telemetry.SinkFunc(func(ev telemetry.Event) { views[ev.View]++ })
	admit := newAdmitSink()
	hub := telemetry.NewHub(telemetry.HubConfig{CPUs: 1, Sinks: []telemetry.Sink{
		guardedSink{l: lAggregate, sink: bad, panics: &panics},
		guardedSink{l: lAdmit, sink: admit, panics: &panics},
	}})
	hub.Start()
	defer hub.Close()
	for i := 1; i <= 3; i++ {
		hub.Emit(telemetry.Event{Node: "n", Cycle: uint64(i)})
	}
	admit.settle(map[string]uint64{"n": 3}, time.Second)
	if err := admit.check("n", 3); err != nil {
		t.Fatal(err)
	}
	if len(panics.take()) == 0 {
		t.Fatal("the sink's panic was not recorded")
	}
}
