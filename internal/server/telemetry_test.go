package server_test

import (
	"bufio"
	"net"
	"slices"
	"strings"
	"testing"

	"sihtm/internal/memsim"
	"sihtm/internal/replica"
	"sihtm/internal/server"
	"sihtm/internal/sihtm"
)

// families lists the metric families a server's /metrics renders.
func families(t *testing.T, srv *server.Server) []string {
	t.Helper()
	var sb strings.Builder
	if err := srv.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var out []string
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out = append(out, f[2])
		}
	}
	return out
}

// TestFamiliesPerRole pins the plane's price: the exact family set each
// role registers. Every family here has a reader — an alert rule, the
// live panel or the incident report — named in docs/observability.md's
// catalog. A new family must be added to this pin and to that table,
// with its reader.
func TestFamiliesPerRole(t *testing.T) {
	common := []string{
		"sihtm_server_admission_wait_seconds", // panel
		"sihtm_server_batch_exec_seconds",     // panel
		"sihtm_server_reply_flush_seconds",    // panel
		"sihtm_server_service_seconds",        // panel, p99-over-slo
		"sihtm_tm_aborts_total",               // rules, panel, report
		"sihtm_tm_commits_total",              // rules, panel, report
	}
	with := func(extra ...string) []string {
		out := append(slices.Clone(common), extra...)
		slices.Sort(out)
		return out
	}

	volatile := startFixture(t, 64, 1, 16, 0, false)
	leader := startFixture(t, 64, 1, 16, 0, true)
	addr := leader.addr.String()
	fol, err := replica.NewFollower(replica.FollowerConfig{
		Heap: memsim.NewHeap(leader.heap.Size()),
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := server.New(server.Config{
		Backend:  volatile.backend,
		System:   sihtm.NewSystem(volatile.machine, 1, sihtm.Config{}),
		Shards:   1,
		Follower: fol,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		role string
		srv  *server.Server
		want []string
	}{
		{"volatile", volatile.srv, with()},
		{"durable leader", leader.srv, with(
			"sihtm_durable_ack_wait_seconds",       // panel stage line
			"sihtm_repl_dropped_subscribers_total", // repl-dropped-subscribers
			"sihtm_wal_durable_seq",                // panel
			"sihtm_wal_fsync_seconds",              // fsync-p99, panel
		)},
		{"follower", follower, with(
			"sihtm_repl_lag",       // follower-watermark-stall gate, panel
			"sihtm_repl_watermark", // follower-watermark-stall, panel
		)},
	} {
		if got := families(t, c.srv); !slices.Equal(got, c.want) {
			t.Errorf("%s registers %v\nwant %v", c.role, got, c.want)
		}
	}
}
