package node

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"sihtm/internal/telemetry"
)

// fakeFollower drives readyProbe's follower slice without a replica.
type fakeFollower struct {
	promoted atomic.Bool
	wm       atomic.Uint64
	leader   atomic.Uint64
}

func (f *fakeFollower) Promoted() bool    { return f.promoted.Load() }
func (f *fakeFollower) Watermark() uint64 { return f.wm.Load() }
func (f *fakeFollower) LeaderSeq() uint64 { return f.leader.Load() }

// TestReadyProbeFollowerStall drives the /readyz callback through the
// follower lifecycle the inline closure used to carry untested: behind
// and advancing is ready, the same watermark twice behind a live leader
// is a 503 stall, progress restores readiness, and catching up fully
// stays ready even with a flat watermark.
func TestReadyProbeFollowerStall(t *testing.T) {
	var draining atomic.Bool
	fol := &fakeFollower{}
	reg := telemetry.NewRegistry()
	h := telemetry.NewHandler(reg, readyProbe(draining.Load, fol))
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func() (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Fresh follower, nothing streamed yet: watermark == leader == 0.
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("fresh follower: status %d want 200", code)
	}
	// Behind but advancing: first observation of a higher watermark
	// counts as progress.
	fol.leader.Store(10)
	fol.wm.Store(5)
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("advancing follower: status %d want 200", code)
	}
	// Same watermark again, still behind the leader: stalled → 503.
	code, body := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("stalled follower: status %d want 503", code)
	}
	if !strings.Contains(body, "replication stalled") || !strings.Contains(body, "watermark 5") {
		t.Fatalf("stall body = %q", body)
	}
	// Progress resumes: ready again.
	fol.wm.Store(7)
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("resumed follower: status %d want 200", code)
	}
	// Fully caught up: a flat watermark at the leader's frontier is
	// idle, not stalled.
	fol.wm.Store(10)
	get() // observe the advance
	for i := 0; i < 3; i++ {
		if code, _ := get(); code != http.StatusOK {
			t.Fatalf("caught-up follower: status %d want 200", code)
		}
	}
	// Promotion short-circuits the follower check entirely.
	fol.leader.Store(20)
	fol.promoted.Store(true)
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("promoted follower: status %d want 200", code)
	}
	// Draining trumps everything.
	draining.Store(true)
	code, body = get()
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining: status %d body %q", code, body)
	}
}
