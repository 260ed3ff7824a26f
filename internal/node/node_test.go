package node

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"sihtm/internal/durable"
	"sihtm/internal/htm"
	"sihtm/internal/htmtm"
	"sihtm/internal/memsim"
	"sihtm/internal/p8tm"
	"sihtm/internal/replica"
	"sihtm/internal/server"
	"sihtm/internal/sgl"
	"sihtm/internal/sihtm"
	"sihtm/internal/silo"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/workload/engine"
	"sihtm/internal/workload/ycsb"
)

// testKeys is large enough that the overloaded htm batches of
// TestCapacityAlertFiresResolvesAndIsReported overrun the TMCAM.
const (
	testKeys   = 512
	testShards = 2
)

// build is the deterministic base every test node starts from: a
// populated hash map on a fresh machine, so a follower's heap and a
// recovery heap begin identical to the leader's.
func build() (*htm.Machine, *engine.HashmapBackend) {
	spec := engine.Spec{Keys: testKeys}
	heap := memsim.NewHeapLines(engine.HashmapHeapLines(spec, testKeys/4))
	m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
	backend := engine.NewHashmapBackend(heap, testKeys/4)
	engine.Populate(backend, spec)
	return m, backend
}

// systems builds each concurrency control over a node's machine, sized
// for the node's executors.
var systems = map[string]func(m *htm.Machine) tm.System{
	"htm":    func(m *htm.Machine) tm.System { return htmtm.NewSystem(m, testShards, htmtm.Config{}) },
	"si-htm": func(m *htm.Machine) tm.System { return sihtm.NewSystem(m, testShards, sihtm.Config{}) },
	"p8tm":   func(m *htm.Machine) tm.System { return p8tm.NewSystem(m, testShards, p8tm.Config{}) },
	"silo":   func(m *htm.Machine) tm.System { return silo.NewSystem(m.Heap(), testShards) },
	"sgl":    func(m *htm.Machine) tm.System { return sgl.NewSystem(m, testShards) },
}

// config is the volatile si-htm node over a fresh build; tests add a
// role.
func config() Config { return systemConfig("si-htm") }

// systemConfig is config running the named concurrency control.
func systemConfig(system string) Config {
	m, backend := build()
	return Config{
		Addr:    "127.0.0.1:0",
		Machine: m,
		Server: server.Config{
			Backend: backend,
			System:  systems[system](m),
			Shards:  testShards,
		},
	}
}

func durableConfig(dir string) Config { return durableOf(config(), dir) }

// durableOf makes cfg a durable leader logging into dir.
func durableOf(cfg Config, dir string) Config {
	cfg.Dir = dir
	return cfg
}

// following makes cfg a follower streaming from leader.
func following(cfg Config, leader *Node) Config {
	addr := leader.Addr.String()
	cfg.Follower = replica.FollowerConfig{Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }}
	return cfg
}

func mustStart(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Shutdown() })
	return n
}

func dial(t *testing.T, n *Node) *engine.RemoteBackend {
	t.Helper()
	rb, err := engine.DialRemote(n.Addr.String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rb.Close() })
	return rb
}

func sameHeap(t *testing.T, what string, want, got *memsim.Heap) {
	t.Helper()
	if want.Size() != got.Size() {
		t.Fatalf("%s: heap is %d words, want %d", what, got.Size(), want.Size())
	}
	for a := 0; a < want.Size(); a++ {
		if w, g := want.Load(memsim.Addr(a)), got.Load(memsim.Addr(a)); w != g {
			t.Fatalf("%s: word %d is %d, want %d", what, a, g, w)
		}
	}
}

// checkPopulation runs the backend's structural check on a quiescent
// heap and holds the hash map to exactly the populated keyspace: the
// YCSB mixes only read and overwrite, so no key may appear or vanish.
func checkPopulation(t *testing.T, what string, b engine.Backend) {
	t.Helper()
	hb := b.(*engine.HashmapBackend)
	if err := hb.Check(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got := hb.Map().Size(); got != testKeys {
		t.Fatalf("%s: population drifted: %d keys, want %d", what, got, testKeys)
	}
}

// TestRoles starts each role, has it answer a request, and shuts it
// down twice.
func TestRoles(t *testing.T) {
	roles := []struct {
		name  string
		start func(t *testing.T) *Node
	}{
		{"volatile", func(t *testing.T) *Node { return mustStart(t, config()) }},
		{"durable-leader", func(t *testing.T) *Node { return mustStart(t, durableConfig(t.TempDir())) }},
		{"follower", func(t *testing.T) *Node {
			leader := mustStart(t, durableConfig(t.TempDir()))
			return mustStart(t, following(config(), leader))
		}},
	}
	for _, role := range roles {
		t.Run(role.name, func(t *testing.T) {
			n := role.start(t)
			rb := dial(t, n)
			if v, ok := rb.NewSession().Read(rb.Direct(), 7); !ok || v != engine.InitialValue(7) {
				t.Fatalf("Read(7) = (%d, %v)", v, ok)
			}
			st, err := rb.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if want := role.name == "durable-leader"; st.Durable != want {
				t.Fatalf("STATS durable = %v, want %v", st.Durable, want)
			}
			for i := 0; i < 2; i++ {
				if err := n.Shutdown(); err != nil {
					t.Fatalf("Shutdown #%d: %v", i+1, err)
				}
			}
			select {
			case <-n.Served():
			default:
				t.Fatal("Serve still running after Shutdown")
			}
		})
	}
}

// TestFollowerReplaysLeader: while a writer drives YCSB-A at the
// leader, concurrent YCSB-C readers run on the followers' replayed
// snapshots through the routing ReplicaBackend. Once every follower has
// caught the leader's durable frontier, each must pass the check over
// the wire, hold the leader's heap word for word, and keep the
// population. Read scaling across followers is not asserted: a
// two-core host cannot show it.
func TestFollowerReplaysLeader(t *testing.T) {
	for _, followers := range []int{1, 3} {
		t.Run(fmt.Sprintf("followers=%d", followers), func(t *testing.T) {
			for _, system := range []string{"si-htm", "sgl"} {
				t.Run(system, func(t *testing.T) { replicateUnderReads(t, system, followers) })
			}
		})
	}
}

// replicateUnderReads is one TestFollowerReplaysLeader case: a durable
// leader running system, and followers streaming from it.
func replicateUnderReads(t *testing.T, system string, followers int) {
	lcfg := durableOf(systemConfig(system), t.TempDir())
	leader := mustStart(t, lcfg)
	var fcfgs []Config
	var fols []*Node
	var addrs []string
	for i := 0; i < followers; i++ {
		fcfg := following(systemConfig(system), leader)
		fol := mustStart(t, fcfg)
		fcfgs, fols, addrs = append(fcfgs, fcfg), append(fols, fol), append(addrs, fol.Addr.String())
	}
	rb, err := engine.DialReplica(leader.Addr.String(), addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rb.Close() })

	stopW := driveYCSB(t, dial(t, leader), ycsb.A, system, 2)
	stopR := driveYCSB(t, rb, ycsb.C, system, 4)
	waitFor(t, "durable writes and replica reads", func() bool {
		for _, fol := range fols {
			if fol.Srv.Snapshot().Stats.Commits < 16 {
				return false
			}
		}
		return leader.Store.DurableSeq() >= 64
	})
	stopR()
	stopW()

	if err := rb.WaitCatchup(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rb.Check(); err != nil {
		t.Fatal(err)
	}
	for i, fol := range fols {
		fol.Follower.Stop()
		what := fmt.Sprintf("follower %d", i)
		sameHeap(t, what, lcfg.Machine.Heap(), fcfgs[i].Machine.Heap())
		checkPopulation(t, what, fcfgs[i].Server.Backend)
	}
}

// TestDurableRecovery: a durable node under concurrent pipelined
// YCSB-A load, with fuzzy checkpoints during it, passes the server-side
// check over the wire and, once stopped, recovers digest-exact both ways
// it is run — from the fuzzy checkpoint plus the log prefix alone
// (CheckpointPath unset: the image a SIGKILL leaves) and from the
// drain-time checkpoint `repro serve` asks for — under plain HTM,
// SI-HTM and the single global lock.
func TestDurableRecovery(t *testing.T) {
	for _, drainCkpt := range []bool{false, true} {
		name := "fuzzy-checkpoint-and-log"
		if drainCkpt {
			name = "drain-checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			for _, system := range []string{"htm", "si-htm", "sgl"} {
				t.Run(system, func(t *testing.T) {
					dir := t.TempDir()
					cfg := durableOf(systemConfig(system), dir)
					cfg.CkptEvery = 5 * time.Millisecond
					if drainCkpt {
						cfg.Server.CheckpointPath = CkptPath(dir)
					}
					n := mustStart(t, cfg)
					rb := dial(t, n)
					stop := driveYCSB(t, rb, ycsb.A, system, 4)
					time.Sleep(50 * time.Millisecond) // several fuzzy checkpoints under writes
					waitFor(t, "durable commits", func() bool { return n.Store.DurableSeq() >= 64 })
					stop()
					if err := rb.Check(); err != nil {
						t.Fatal(err)
					}
					if err := n.Shutdown(); err != nil {
						t.Fatal(err)
					}

					m2, backend2 := build()
					rep, err := durable.Recover(m2.Heap(), CkptPath(dir), LogPath(dir))
					if err != nil {
						t.Fatal(err)
					}
					if !rep.CheckpointUsed {
						t.Error("recovery used no checkpoint")
					}
					if drainCkpt && rep.Watermark != n.Store.LastSeq() {
						t.Errorf("drain checkpoint at watermark %d, log ends at %d", rep.Watermark, n.Store.LastSeq())
					}
					sameHeap(t, "recovered", cfg.Machine.Heap(), m2.Heap())
					checkPopulation(t, "recovered", backend2)
				})
			}
		})
	}
}

// TestStaleCheckpointSwept: a checkpoint left in the run directory by an
// earlier run belongs to a different history and must not survive Start.
func TestStaleCheckpointSwept(t *testing.T) {
	dir := t.TempDir()
	for _, p := range []string{CkptPath(dir), CkptPath(dir) + ".tmp"} {
		if err := os.WriteFile(p, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustStart(t, durableConfig(dir))
	for _, p := range []string{CkptPath(dir), CkptPath(dir) + ".tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived Start (err=%v)", p, err)
		}
	}
}

// goroutinesIn reports whether any live goroutine has a frame whose
// function name contains fn.
func goroutinesIn(fn string) bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn)
}

// TestFailedStartLeavesNothingRunning: a durable node whose listen
// address is taken must fail to start with its store closed (the WAL's
// group-commit daemon gone) and no checkpoint ticker left behind to
// write into the run directory.
func TestFailedStartLeavesNothingRunning(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()

	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Addr = taken.Addr().String()
	cfg.CkptEvery = time.Millisecond
	if n, err := Start(cfg); err == nil {
		n.Shutdown()
		t.Fatal("Start bound an address already in use")
	}
	// No checkpointer goroutine is left, so none can write one later.
	for _, fn := range []string{"node.startCheckpointer", "wal.(*Log).daemon"} {
		if goroutinesIn(fn) {
			t.Errorf("a %s goroutine outlived the failed Start", fn)
		}
	}
	if _, err := os.Stat(CkptPath(dir)); !os.IsNotExist(err) {
		t.Errorf("a checkpoint appeared after the failed Start (err=%v)", err)
	}
}

// TestHeadless: without an address the node is a store and a
// checkpointer around the caller's System, and Shutdown closes both.
func TestHeadless(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Addr = ""
	cfg.CkptEvery = time.Millisecond
	n := mustStart(t, cfg)
	if n.Srv != nil || n.Served() != nil {
		t.Fatal("headless node has a server")
	}
	s := n.Backend.NewSession()
	for k := uint64(0); k < 32; k++ {
		s.Prepare(1)
		n.System.Atomic(0, tm.KindUpdate, func(ops tm.Ops) {
			s.Reset()
			s.Insert(ops, k, k+500)
		})
		s.Commit()
	}
	if n.Store.LastSeq() == 0 {
		t.Fatal("commits on Node.System were not logged")
	}
	for i := 0; i < 2; i++ {
		if err := n.Shutdown(); err != nil {
			t.Fatalf("Shutdown #%d: %v", i+1, err)
		}
	}
	m2, _ := build()
	if _, err := durable.Recover(m2.Heap(), CkptPath(dir), LogPath(dir)); err != nil {
		t.Fatal(err)
	}
	sameHeap(t, "recovered", cfg.Machine.Heap(), m2.Heap())
}
