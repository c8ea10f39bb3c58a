package server

import (
	"errors"
	"testing"
)

func resp(id string) *sanitizeResponse { return &sanitizeResponse{Digest: id} }

func TestJobLifecycle(t *testing.T) {
	s := newJobStore(8)
	j := s.Create()
	if j.State != JobQueued || j.ID == "" || j.Submitted.IsZero() {
		t.Fatalf("bad fresh job: %+v", j)
	}
	s.Start(j.ID)
	got, ok := s.Get(j.ID)
	if !ok || got.State != JobRunning || got.Started.IsZero() {
		t.Fatalf("after Start: %+v", got)
	}
	s.Finish(j.ID, resp("d"))
	got, _ = s.Get(j.ID)
	if got.State != JobDone || got.Result == nil || got.Finished.IsZero() {
		t.Fatalf("after Finish: %+v", got)
	}

	j2 := s.Create()
	s.Start(j2.ID)
	s.Fail(j2.ID, errors.New("boom"))
	got, _ = s.Get(j2.ID)
	if got.State != JobFailed || got.Error != "boom" {
		t.Fatalf("after Fail: %+v", got)
	}
	if j2.ID == j.ID {
		t.Fatal("job IDs must be unique")
	}
	if _, ok := s.Get("job-999999"); ok {
		t.Fatal("unknown job should not resolve")
	}
}

// TestJobListDoesNotAliasResult: handleJobList strips Result from its
// listing snapshots; that write must never reach the stored job. List
// returns value copies of each *Job, so assigning through the copy leaves
// the store's pointer intact — this test locks the contract in case List's
// snapshot semantics ever change.
func TestJobListDoesNotAliasResult(t *testing.T) {
	s := newJobStore(8)
	j := s.Create()
	s.Start(j.ID)
	s.Finish(j.ID, resp("digest-1"))

	list := s.List()
	if len(list) != 1 || list[0].Result == nil {
		t.Fatalf("listing %+v", list)
	}
	list[0].Result = nil // what handleJobList does to every entry
	got, ok := s.Get(j.ID)
	if !ok || got.Result == nil {
		t.Fatal("clearing Result on a listing snapshot reached the stored job")
	}
	if got.Result.Digest != "digest-1" {
		t.Fatalf("stored result corrupted: %+v", got.Result)
	}
}

func TestJobStoreRemove(t *testing.T) {
	s := newJobStore(8)
	a := s.Create()
	b := s.Create()
	s.Remove(a.ID)
	s.Remove("job-999999") // unknown id is a no-op
	if _, ok := s.Get(a.ID); ok {
		t.Fatal("removed job should be gone")
	}
	if list := s.List(); len(list) != 1 || list[0].ID != b.ID {
		t.Fatalf("List() = %v, want just %s", list, b.ID)
	}
}

func TestJobStoreEvictsOldestFinishedOnly(t *testing.T) {
	s := newJobStore(2)
	a := s.Create()
	s.Start(a.ID)
	s.Finish(a.ID, resp("a"))
	b := s.Create() // still queued: never evictable
	c := s.Create() // over cap → a (finished) is evicted
	if _, ok := s.Get(a.ID); ok {
		t.Fatal("finished job a should have been evicted")
	}
	for _, id := range []string{b.ID, c.ID} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("unfinished job %s must be retained", id)
		}
	}
	list := s.List()
	if len(list) != 2 || list[0].ID != b.ID || list[1].ID != c.ID {
		t.Fatalf("List() = %+v, want [b, c] in submission order", list)
	}
	if counts := s.CountByState(); counts[JobQueued] != 2 {
		t.Fatalf("CountByState() = %v, want 2 queued", counts)
	}
}

// TestJobStoreEvictsOnFinish regresses the PR 3 bug: a store pushed over
// cap by all-running work grew unbounded and retained finished jobs until
// the *next* Create. Completions must now trigger eviction themselves.
func TestJobStoreEvictsOnFinish(t *testing.T) {
	const capacity = 3
	const extra = 4
	s := newJobStore(capacity)

	// Fill past cap with running jobs: nothing is evictable, so the store
	// legitimately holds cap+extra entries.
	jobs := make([]Job, 0, capacity+extra)
	for i := 0; i < capacity+extra; i++ {
		j := s.Create()
		s.Start(j.ID)
		jobs = append(jobs, j)
	}
	if got := len(s.List()); got != capacity+extra {
		t.Fatalf("all-running store retains %d jobs, want %d (running work is never dropped)", got, capacity+extra)
	}

	// Each completion while over cap must evict immediately — no Create in
	// between. The just-finished job is the only evictable one, so the store
	// shrinks by one per completion until it fits its cap.
	for i := 0; i < extra; i++ {
		s.Finish(jobs[i].ID, resp("r"))
		want := capacity + extra - (i + 1)
		if got := len(s.List()); got != want {
			t.Fatalf("after finishing %d jobs: store holds %d, want %d (eviction must run on Finish)", i+1, got, want)
		}
		if _, ok := s.Get(jobs[i].ID); ok && len(s.List()) > capacity {
			t.Fatalf("finished job %s retained while store is over cap", jobs[i].ID)
		}
	}

	// At cap: further completions are retained (nothing is over cap).
	s.Fail(jobs[extra].ID, errors.New("boom"))
	if got := len(s.List()); got != capacity {
		t.Fatalf("store at cap holds %d, want %d", got, capacity)
	}
	if j, ok := s.Get(jobs[extra].ID); !ok || j.State != JobFailed {
		t.Fatalf("failed job should be retained once under cap, got %+v (ok=%v)", j, ok)
	}

	// The remaining entries are the youngest running jobs plus the retained
	// failure, in submission order.
	list := s.List()
	running := 0
	for _, j := range list {
		if j.State == JobRunning {
			running++
		}
	}
	if running != capacity-1 {
		t.Fatalf("retained %d running jobs, want %d", running, capacity-1)
	}
}
