package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSlotPaddingKeepsThreadsApart(t *testing.T) {
	var slots [2]threadSlot
	a := uintptr(unsafe.Pointer(&slots[0]))
	b := uintptr(unsafe.Pointer(&slots[1]))
	if b-a < 128 {
		t.Fatalf("adjacent slots %d bytes apart, want >= 128 (one cache line)", b-a)
	}
}

func TestBasicCounting(t *testing.T) {
	c := New(2)
	t0 := c.Thread(0)
	t1 := c.Thread(1)
	t0.Commit(false)
	t0.Commit(true)
	t0.Abort(AbortCapacity)
	t1.Abort(AbortTransactional)
	t1.Abort(AbortTransactional)
	t1.Fallback()
	t1.WaitSpins(7)

	s := c.Snapshot()
	if s.Commits != 2 || s.CommitsRO != 1 {
		t.Fatalf("commits = %d (ro %d), want 2 (ro 1)", s.Commits, s.CommitsRO)
	}
	if s.Aborts[AbortCapacity] != 1 || s.Aborts[AbortTransactional] != 2 {
		t.Fatalf("aborts wrong: %+v", s.Aborts)
	}
	if s.TotalAborts() != 3 {
		t.Fatalf("TotalAborts = %d, want 3", s.TotalAborts())
	}
	if s.Attempts() != 5 {
		t.Fatalf("Attempts = %d, want 5", s.Attempts())
	}
	if s.Fallbacks != 1 || s.WaitSpins != 7 {
		t.Fatalf("fallbacks/waitSpins = %d/%d, want 1/7", s.Fallbacks, s.WaitSpins)
	}
}

func TestAbortKindOutOfRangeMapsToOther(t *testing.T) {
	c := New(1)
	c.Thread(0).Abort(AbortKind(99))
	c.Thread(0).Abort(AbortKind(-1))
	if got := c.Snapshot().Aborts[AbortOther]; got != 2 {
		t.Fatalf("out-of-range kinds recorded %d in Other, want 2", got)
	}
}

func TestSubDelta(t *testing.T) {
	c := New(1)
	th := c.Thread(0)
	th.Commit(false)
	th.Abort(AbortCapacity)
	warm := c.Snapshot()
	th.Commit(false)
	th.Commit(false)
	th.Abort(AbortNonTransactional)
	d := c.Snapshot().Sub(warm)
	if d.Commits != 2 {
		t.Fatalf("delta commits = %d, want 2", d.Commits)
	}
	if d.Aborts[AbortCapacity] != 0 || d.Aborts[AbortNonTransactional] != 1 {
		t.Fatalf("delta aborts wrong: %+v", d.Aborts)
	}
}

func TestRates(t *testing.T) {
	var s Stats
	if s.AbortRate() != 0 || s.AbortShare(AbortCapacity) != 0 {
		t.Fatal("zero stats must have zero rates")
	}
	s.Commits = 60
	s.Aborts[AbortTransactional] = 30
	s.Aborts[AbortCapacity] = 10
	if got := s.AbortRate(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("AbortRate = %v, want 0.4", got)
	}
	if got := s.AbortShare(AbortCapacity); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("AbortShare(capacity) = %v, want 0.1", got)
	}
}

// Property: shares over all kinds sum to the abort rate.
func TestSharesSumToRateProperty(t *testing.T) {
	f := func(commits uint16, a0, a1, a2, a3, a4 uint16) bool {
		var s Stats
		s.Commits = uint64(commits)
		s.Aborts[0] = uint64(a0)
		s.Aborts[1] = uint64(a1)
		s.Aborts[2] = uint64(a2)
		s.Aborts[3] = uint64(a3)
		s.Aborts[4] = uint64(a4)
		var sum float64
		for k := 0; k < NumAbortKinds; k++ {
			sum += s.AbortShare(AbortKind(k))
		}
		return math.Abs(sum-s.AbortRate()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCountingLosesNothing(t *testing.T) {
	const threads = 8
	const per = 10000
	c := New(threads)
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := c.Thread(id)
			for i := 0; i < per; i++ {
				th.Commit(i%2 == 0)
				th.Abort(AbortKind(i % NumAbortKinds))
			}
		}(id)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Commits != threads*per {
		t.Fatalf("commits = %d, want %d", s.Commits, threads*per)
	}
	if s.TotalAborts() != threads*per {
		t.Fatalf("aborts = %d, want %d", s.TotalAborts(), threads*per)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[AbortKind]string{
		AbortTransactional:    "transactional",
		AbortNonTransactional: "non-transactional",
		AbortCapacity:         "capacity",
		AbortExplicit:         "explicit",
		AbortOther:            "other",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if !strings.HasPrefix(AbortKind(42).String(), "AbortKind(") {
		t.Error("unknown kind should format as AbortKind(n)")
	}
}

func TestStatsString(t *testing.T) {
	c := New(1)
	c.Thread(0).Commit(true)
	c.Thread(0).Abort(AbortCapacity)
	got := c.Snapshot().String()
	for _, want := range []string{"commits=1", "ro=1", "capacity=1", "fallbacks=0"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

// HWBegin feeds the mode-split hardware-attempt counters.
func TestHWBegin(t *testing.T) {
	c := New(2)
	t0, t1 := c.Thread(0), c.Thread(1)
	t0.HWBegin(true)
	t0.HWBegin(true)
	t0.HWBegin(false)
	t1.HWBegin(false)
	t0.Commit(false)

	s := c.Snapshot()
	if s.HWBeginROT != 2 || s.HWBeginHTM != 2 {
		t.Fatalf("snapshot hw = rot:%d htm:%d, want 2/2", s.HWBeginROT, s.HWBeginHTM)
	}
	t1.HWBegin(true)
	d := c.Snapshot().Sub(s)
	if d.HWBeginROT != 1 || d.HWBeginHTM != 0 {
		t.Fatalf("Sub hw delta = rot:%d htm:%d, want 1/0", d.HWBeginROT, d.HWBeginHTM)
	}
}
