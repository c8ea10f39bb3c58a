package loadgen

import (
	"testing"
	"time"
)

func TestPaceLimits(t *testing.T) {
	offsets := make([]time.Duration, 11)
	for i := range offsets {
		offsets[i] = time.Duration(i) * time.Millisecond
	}
	const speedup = 1000.0
	// N limit.
	if n := Pace(offsets, speedup, Limits{N: 7}, func(int) {}); n != 7 {
		t.Fatalf("N-limited Pace fired %d, want 7", n)
	}
	// D limit against the recorded (pre-speedup) offsets: the trace spans
	// 0..10ms replayed at 1000x; D=4ms admits offsets ≤ 4ms regardless of
	// the compressed wall offsets.
	if n := Pace(offsets, speedup, Limits{D: 4 * time.Millisecond}, func(int) {}); n != 5 { // 0,1,2,3,4 ms
		t.Fatalf("D-limited Pace fired %d, want 5", n)
	}
	// Offset exhaustion without limits.
	if n := Pace(offsets[:3], speedup, Limits{}, func(int) {}); n != 3 {
		t.Fatalf("unlimited Pace fired %d, want 3 (offset count)", n)
	}
}

// TestPaceSpeedup checks the compression: at speedup 4 each arrival fires
// at a quarter of its recorded offset, not before and not at the recorded
// time; speedup ≤ 0 falls back to 1x.
func TestPaceSpeedup(t *testing.T) {
	offsets := []time.Duration{100 * time.Millisecond, 400 * time.Millisecond}
	var fired []time.Duration
	start := time.Now()
	Pace(offsets, 4, Limits{}, func(int) { fired = append(fired, time.Since(start)) })
	for i, at := range fired {
		if want := offsets[i] / 4; at < want-time.Millisecond {
			t.Errorf("arrival %d fired at %v, before its compressed offset %v", i, at, want)
		}
	}
	if last := fired[len(fired)-1]; last >= offsets[len(offsets)-1] {
		t.Errorf("speedup 4 fired the last arrival at %v, no earlier than its recorded %v", last, offsets[len(offsets)-1])
	}

	var at time.Duration
	start = time.Now()
	Pace(offsets[:1], 0, Limits{}, func(int) { at = time.Since(start) })
	if at < offsets[0]-time.Millisecond {
		t.Errorf("speedup 0 fired at %v, before the recorded %v", at, offsets[0])
	}
}

// TestPaceOpenLoopAdherence checks the open-loop property: arrivals fire
// no earlier than scheduled, and a slow fn (dispatching async work) does
// not push later arrivals past a generous tolerance.
func TestPaceOpenLoopAdherence(t *testing.T) {
	offsets := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond,
		40 * time.Millisecond, 50 * time.Millisecond,
	}
	var fired []time.Duration
	start := time.Now()
	Pace(offsets, 1, Limits{}, func(int) {
		fired = append(fired, time.Since(start))
	})
	if len(fired) != len(offsets) {
		t.Fatalf("fired %d arrivals, want %d", len(fired), len(offsets))
	}
	const slack = 250 * time.Millisecond // generous: CI schedulers stall
	for i, at := range fired {
		if at < offsets[i]-time.Millisecond {
			t.Errorf("arrival %d fired at %v, before its offset %v", i, at, offsets[i])
		}
		if at > offsets[i]+slack {
			t.Errorf("arrival %d fired at %v, > %v past its offset %v", i, at, slack, offsets[i])
		}
	}
}
