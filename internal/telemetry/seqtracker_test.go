package telemetry

import "testing"

// TestSeqTrackerAdmit covers the dedupe contract live migration leans on:
// re-sent batches are skipped by their duplicate prefix, holes are
// counted as gaps, and the per-node cursor only moves forward.
func TestSeqTrackerAdmit(t *testing.T) {
	tr := NewSeqTracker()
	if skip := tr.Admit("n1", 0, 10); skip != 0 {
		t.Fatalf("fresh batch skipped %d", skip)
	}
	// Full re-send: everything is a duplicate.
	if skip := tr.Admit("n1", 0, 10); skip != 10 {
		t.Fatalf("full re-send skipped %d, want 10", skip)
	}
	// Overlapping re-send: only the unseen suffix is admitted.
	if skip := tr.Admit("n1", 5, 10); skip != 5 {
		t.Fatalf("overlap skipped %d, want 5", skip)
	}
	if got := tr.next["n1"]; got != 15 {
		t.Fatalf("cursor %d, want 15", got)
	}
	if got := tr.Dups(); got != 15 {
		t.Fatalf("dups %d, want 15", got)
	}
	// A batch past the cursor is a hole upstream: counted, cursor jumps.
	if skip := tr.Admit("n1", 20, 5); skip != 0 {
		t.Fatalf("gapped batch skipped %d", skip)
	}
	if got := tr.Gaps(); got != 5 {
		t.Fatalf("gaps %d, want 5", got)
	}
	if got := tr.next["n1"]; got != 25 {
		t.Fatalf("cursor %d after gap, want 25", got)
	}
	// Nodes are independent.
	if got := tr.next["n2"]; got != 0 {
		t.Fatalf("unseen node cursor %d", got)
	}
}

// TestSeqTrackerMigrationStitch models a cutover: the source drains to its
// final-seq watermark, the target starts its own stream, and the
// fleet-wide exact count is the sum of per-node cursors — unchanged by a
// re-sent source tail.
func TestSeqTrackerMigrationStitch(t *testing.T) {
	tr := NewSeqTracker()
	tr.Admit("src", 0, 40)
	tr.Admit("src", 40, 2) // the final drained tail; watermark 42
	const finalSeq = 42
	if got := tr.next["src"]; got != finalSeq {
		t.Fatalf("source cursor %d, want the final-seq watermark %d", got, finalSeq)
	}
	// The tail is re-sent across the failover-prone window: no double count.
	tr.Admit("src", 40, 2)
	if got := tr.next["src"]; got != finalSeq {
		t.Fatalf("re-sent tail moved the watermark to %d", got)
	}
	// The target picks up with its own stream.
	tr.Admit("dst", 0, 7)
	if total := tr.next["src"] + tr.next["dst"]; total != finalSeq+7 {
		t.Fatalf("fleet-wide count %d, want %d", total, finalSeq+7)
	}
	if tr.Dups() != 2 {
		t.Fatalf("dups %d, want exactly the re-sent tail", tr.Dups())
	}
}
