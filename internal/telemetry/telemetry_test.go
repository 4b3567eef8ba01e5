package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRingPushPopWraparound(t *testing.T) {
	r := NewRing(4)
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	// Exercise several full wrap cycles.
	seq := uint64(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			seq++
			if !r.Push(Event{Seq: seq}) {
				t.Fatalf("round %d: push %d failed on non-full ring", round, seq)
			}
		}
		for i := 0; i < 3; i++ {
			ev, ok := r.pop()
			if !ok {
				t.Fatalf("round %d: pop %d failed on non-empty ring", round, i)
			}
			if want := seq - 2 + uint64(i); ev.Seq != want {
				t.Fatalf("round %d: pop seq = %d, want %d", round, ev.Seq, want)
			}
		}
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop on empty ring succeeded")
	}
	if r.Drops() != 0 {
		t.Fatalf("drops = %d, want 0", r.Drops())
	}
}

func TestRingOverflowDropsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 4; i++ {
		if !r.Push(Event{Seq: uint64(i)}) {
			t.Fatalf("push %d failed before capacity", i)
		}
	}
	for i := 5; i <= 7; i++ {
		if r.Push(Event{Seq: uint64(i)}) {
			t.Fatalf("push %d succeeded on full ring", i)
		}
	}
	if r.Drops() != 3 {
		t.Fatalf("drops = %d, want 3", r.Drops())
	}
	// The buffered prefix survives intact (drop-newest, never overwrite).
	for i := 1; i <= 4; i++ {
		ev, ok := r.pop()
		if !ok || ev.Seq != uint64(i) {
			t.Fatalf("pop = (%v, %v), want seq %d", ev.Seq, ok, i)
		}
	}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 2}, {1, 2}, {3, 4}, {4, 4}, {5, 8}, {4096, 4096}} {
		if got := NewRing(tc.in).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestHubMergesRingsInEmissionOrder(t *testing.T) {
	var got []uint64
	h := NewHub(HubConfig{CPUs: 4, Sinks: []Sink{SinkFunc(func(ev Event) {
		got = append(got, ev.Seq)
	})}})
	// Interleave emission across vCPUs; sequence numbers are stamped in
	// call order, so the sink must see 1..N regardless of ring layout.
	for i := 0; i < 64; i++ {
		h.Emit(Event{Kind: KindSwitch, CPU: i % 4})
	}
	// Out-of-range CPUs clamp to ring 0 rather than being lost.
	h.Emit(Event{Kind: KindSwitch, CPU: -1})
	h.Emit(Event{Kind: KindSwitch, CPU: 99})
	if n := h.Drain(); n != 66 {
		t.Fatalf("Drain = %d, want 66", n)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("sink saw seq %d at position %d, want %d", seq, i, i+1)
		}
	}
	if h.Drops() != 0 || h.Emitted() != 66 || h.Pending() != 0 {
		t.Fatalf("drops/emitted/pending = %d/%d/%d, want 0/66/0", h.Drops(), h.Emitted(), h.Pending())
	}
}

func TestHubBackgroundConsumerAndClose(t *testing.T) {
	agg := NewAggregator(0)
	h := NewHub(HubConfig{CPUs: 2, RingSize: 64, Sinks: []Sink{agg}})
	h.Start()
	const n = 500
	for i := 0; i < n; i++ {
		h.Emit(Event{Kind: KindUD2Trap, CPU: i % 2})
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := agg.Stats()
	if st.Total+h.Drops() != n {
		t.Fatalf("consumed %d + dropped %d, want total %d", st.Total, h.Drops(), n)
	}
	// With a live consumer on a 64-slot ring the 500-event trickle should
	// not overrun, but the invariant above is what the design guarantees.
	if st.ByKind[KindUD2Trap] != st.Total {
		t.Fatalf("ByKind[ud2-trap] = %d, want %d", st.ByKind[KindUD2Trap], st.Total)
	}
}

func TestConcurrentEmitAndDrain(t *testing.T) {
	// One producer goroutine per vCPU ring (the SPSC contract) racing a
	// background consumer; run under -race this validates the atomics.
	const cpus, per = 4, 2000
	agg := NewAggregator(0)
	h := NewHub(HubConfig{CPUs: cpus, RingSize: 128, Sinks: []Sink{agg}})
	h.Start()
	var wg sync.WaitGroup
	for c := 0; c < cpus; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Emit(Event{Kind: KindSwitch, CPU: c})
			}
		}(c)
	}
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := agg.Stats().Total + h.Drops(); got != cpus*per {
		t.Fatalf("consumed+dropped = %d, want %d", got, cpus*per)
	}
}

func TestAggregatorCountsAndTail(t *testing.T) {
	agg := NewAggregator(4)
	agg.HandleEvent(Event{Seq: 1, Kind: KindRecovery, Comm: "nginx", Interrupt: true, N: 64})
	agg.HandleEvent(Event{Seq: 2, Kind: KindRecovery, Comm: "nginx", Instant: true, N: 32})
	agg.HandleEvent(Event{Seq: 3, Kind: KindRecovery, Comm: "sshd", N: 128})
	agg.HandleEvent(Event{Seq: 4, Kind: KindSwitch, View: "nginx"})
	agg.HandleEvent(Event{Seq: 5, Kind: KindEPTPSwap, View: "sshd"})
	agg.HandleEvent(Event{Seq: 6, Kind: KindCacheHit, N: 100})

	st := agg.Stats()
	if st.Total != 6 || st.ByKind[KindRecovery] != 3 || st.Switches != 2 {
		t.Fatalf("Total/recoveries/switches = %d/%d/%d, want 6/3/2", st.Total, st.ByKind[KindRecovery], st.Switches)
	}
	if st.InterruptRecoveries != 1 || st.InstantRecoveries != 1 || st.RecoveredBytes != 224 {
		t.Fatalf("interrupt/instant/bytes = %d/%d/%d, want 1/1/224", st.InterruptRecoveries, st.InstantRecoveries, st.RecoveredBytes)
	}
	if st.ByComm["nginx"] != 2 || st.ByComm["sshd"] != 1 || st.ByView["nginx"] != 1 {
		t.Fatalf("ByComm/ByView wrong: %v %v", st.ByComm, st.ByView)
	}

	// Tail of 4 over 6 events: oldest two evicted, order preserved.
	tail := agg.Tail(0)
	if len(tail) != 4 || tail[0].Seq != 3 || tail[3].Seq != 6 {
		t.Fatalf("Tail(0) seqs = %v, want [3..6]", seqs(tail))
	}
	if tail = agg.Tail(2); len(tail) != 2 || tail[0].Seq != 5 {
		t.Fatalf("Tail(2) seqs = %v, want [5 6]", seqs(tail))
	}
}

func seqs(evs []Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, ev := range evs {
		out[i] = ev.Seq
	}
	return out
}

func TestJSONLWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	want := Event{
		Seq: 7, Cycle: 123456, CPU: 1, Kind: KindRecovery, PID: 42,
		Comm: "nginx", View: "nginx", Addr: 0xc0211370, FnStart: 0xc0211370,
		FnEnd: 0xc0211470, Fn: "pipe_poll+0x0", Interrupt: true, N: 256,
		Backtrace: []Frame{{Addr: 0xc021a526, Sym: "do_sys_poll+0x136"}},
	}
	jw.HandleEvent(want)
	jw.HandleEvent(Event{Seq: 8, Kind: KindViewLoad, View: "sshd", N: 9})
	if err := jw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no first line")
	}
	var got Event
	if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Kind != KindRecovery || got.Fn != want.Fn || got.Addr != want.Addr ||
		!got.Interrupt || len(got.Backtrace) != 1 || got.Backtrace[0].Sym != want.Backtrace[0].Sym {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if !strings.Contains(sc.Text(), `"kind":"recovery"`) {
		t.Fatalf("kind not serialized as string: %s", sc.Text())
	}
	if !sc.Scan() || !strings.Contains(sc.Text(), `"kind":"view-load"`) {
		t.Fatalf("bad second line: %s", sc.Text())
	}
}

func TestKindJSONRoundTripAndString(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Fatalf("unmarshal %s: got %v err %v", b, back, err)
		}
	}
	if KindRecovery != 0 {
		t.Fatal("KindRecovery must be the zero Kind (bare core.Event literals rely on it)")
	}
}

func TestEventStringRecoveryPaperFormat(t *testing.T) {
	ev := Event{
		Kind: KindRecovery,
		Addr: 0xc0211370, Fn: "pipe_poll+0x0", View: "top",
		Backtrace: []Frame{{Addr: 0xc021a526, Sym: "do_sys_poll+0x136"}},
	}
	want := "Recover 0xc0211370 <pipe_poll+0x0> for kernel[top]\n|-- 0xc021a526 <do_sys_poll+0x136>\n"
	if got := ev.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestMetricsHandler(t *testing.T) {
	agg := NewAggregator(0)
	h := NewHub(HubConfig{CPUs: 1, Sinks: []Sink{agg}})
	h.Emit(Event{Kind: KindRecovery, Comm: "nginx", N: 64})
	h.Emit(Event{Kind: KindEPTPSwap, View: "nginx"})
	h.Drain()

	rec := httptest.NewRecorder()
	MetricsHandler(h, agg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP facechange_events_emitted_total",
		"facechange_events_emitted_total 2",
		"facechange_ring_drops_total 0",
		`facechange_events_total{kind="recovery"} 1`,
		`facechange_events_total{kind="eptp-swap"} 1`,
		"facechange_view_switches_total 1",
		`facechange_recoveries_by_comm_total{comm="nginx"} 1`,
		"facechange_recovered_bytes_total 64",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q\n%s", want, body)
		}
	}
	// HELP/TYPE headers must not repeat per label combination.
	if n := strings.Count(body, "# TYPE facechange_events_total "); n != 1 {
		t.Errorf("facechange_events_total TYPE header appears %d times, want 1", n)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestEventsHandler(t *testing.T) {
	agg := NewAggregator(8)
	for i := 1; i <= 5; i++ {
		agg.HandleEvent(Event{Seq: uint64(i), Kind: KindSwitch, View: "v"})
	}
	rec := httptest.NewRecorder()
	EventsHandler(agg).ServeHTTP(rec, httptest.NewRequest("GET", "/events?n=3", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil || ev.Seq != 3 {
		t.Fatalf("first line = %s (err %v), want seq 3", lines[0], err)
	}

	rec = httptest.NewRecorder()
	EventsHandler(agg).ServeHTTP(rec, httptest.NewRequest("GET", "/events?n=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad n: code = %d, want 400", rec.Code)
	}
}
