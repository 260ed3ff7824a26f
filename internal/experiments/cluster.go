package experiments

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"sihtm/internal/memsim"
	"sihtm/internal/netchaos"
	"sihtm/internal/node"
	"sihtm/internal/replica"
	"sihtm/internal/server"
)

// clusterSpec describes the loopback cluster a net or repl cell
// self-hosts: a leader plus any number of followers, every node started
// through node.Start on its own identical deterministic build of the
// scenario — so the followers' heaps start from the same
// post-population base image the leader's log was opened on, the
// contract stream replay and crash recovery both rely on.
type clusterSpec struct {
	y      ycsbSpec
	system string
	// threads is the build parameter (the deterministic seed derives from
	// it) and shards the executor count of every node (0 = threads).
	threads int
	shards  int
	// durable gives the leader a WAL in a transient run directory
	// (followers need one to stream), checkpointed fuzzily on ckptEvery
	// (0 = never). The drain writes no checkpoint: recovery must
	// reconstruct the live heap from the fuzzy checkpoint plus the log
	// prefix alone — the image a SIGKILL would leave.
	durable   bool
	ckptEvery time.Duration
	// followers is the replica count; chaos, when set, streams each one
	// through its own seeded fault-injecting dialer.
	followers int
	chaos     *netchaos.Config
	// p99Target starts the adaptive admission controller; ctrlInterval
	// overrides its adjustment interval.
	p99Target    time.Duration
	ctrlInterval time.Duration
}

// member is one node of the cluster and the in-process build behind it
// (bare, so its check runs after the store closed).
type member struct {
	node  *node.Node
	built *built
	chaos *netchaos.Dialer
}

func (m *member) heap() *memsim.Heap { return m.built.machine.Heap() }

// cluster is a running clusterSpec.
type cluster struct {
	spec      clusterSpec
	sc        Scale
	keys      int
	dir       string // the leader's run directory ("" = volatile)
	leader    *member
	followers []*member
}

// startCluster starts the leader, then the followers against it.
func startCluster(spec clusterSpec, sc Scale) (*cluster, error) {
	c := &cluster{spec: spec, sc: sc, keys: spec.y.keys(sc)}
	fail := func(err error) (*cluster, error) {
		c.close()
		return nil, err
	}
	var lcfg node.Config
	var err error
	if spec.durable {
		if c.dir, err = os.MkdirTemp("", "sihtm-durable-"); err != nil {
			return nil, err
		}
		lcfg.Dir = c.dir
		lcfg.CkptEvery = spec.ckptEvery
	}
	if c.leader, err = c.startMember(lcfg); err != nil {
		return fail(err)
	}
	leaderAddr := c.addr()
	for i := 0; i < spec.followers; i++ {
		var dialer *netchaos.Dialer
		dial := func() (net.Conn, error) { return net.Dial("tcp", leaderAddr) }
		if spec.chaos != nil {
			cfg := *spec.chaos
			cfg.Seed += uint64(i) * 7919 // distinct schedule per follower
			dialer = netchaos.NewDialer(leaderAddr, cfg)
			dial = dialer.Dial
		}
		f, err := c.startMember(node.Config{
			Server:   server.Config{LeaderLogPath: node.LogPath(c.dir)},
			Follower: replica.FollowerConfig{Dial: dial, ReadTimeout: replReadTimeout},
		})
		if err != nil {
			return fail(err)
		}
		f.chaos = dialer
		c.followers = append(c.followers, f)
	}
	return c, nil
}

// startMember builds the scenario and starts one node on it; cfg
// carries the node's role, the rest is the same for every member.
func (c *cluster) startMember(cfg node.Config) (*member, error) {
	spec := c.spec
	b, err := spec.y.build(c.sc, spec.threads)
	if err != nil {
		return nil, err
	}
	shards := spec.shards
	if shards <= 0 {
		shards = spec.threads
	}
	sys, err := NewSystem(spec.system, b.machine, b.machine.Heap(), shards)
	if err != nil {
		return nil, err
	}
	cfg.Addr = "127.0.0.1:0"
	cfg.Machine = b.machine
	cfg.Server.Backend = b.backend
	cfg.Server.System = sys
	cfg.Server.Shards = shards
	cfg.Server.BatchMax = netBatchDefault
	cfg.Server.Scenario = spec.y.id
	cfg.Server.P99Target = spec.p99Target
	cfg.Server.CtrlInterval = spec.ctrlInterval
	n, err := node.Start(cfg)
	if err != nil {
		return nil, err
	}
	return &member{node: n, built: b}, nil
}

// addr is the leader's listen address.
func (c *cluster) addr() string { return c.leader.node.Addr.String() }

// followerAddrs lists the follower listen addresses.
func (c *cluster) followerAddrs() []string {
	addrs := make([]string, len(c.followers))
	for i, f := range c.followers {
		addrs[i] = f.node.Addr.String()
	}
	return addrs
}

// shutdown stops every node, followers first (their streams end when
// the leader drains anyway, but this keeps shutdown orderly), and
// reports what failed on any of them — a listener that died mid-cell
// included. Idempotent.
func (c *cluster) shutdown() error {
	var errs []error
	for i, f := range c.followers {
		if err := f.node.Shutdown(); err != nil {
			errs = append(errs, fmt.Errorf("follower %d: %w", i, err))
		}
	}
	if c.leader != nil {
		if err := c.leader.node.Shutdown(); err != nil {
			errs = append(errs, fmt.Errorf("leader: %w", err))
		}
	}
	return errors.Join(errs...)
}

// close is the deferred cleanup: shutdown (a cell's success path has
// already checked its error) and removal of the run directory.
func (c *cluster) close() {
	c.shutdown()
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// verify shuts the cluster down and re-checks the leader in process:
// structural invariants and population conservation, and for a durable
// leader digest-exact recovery from its run directory.
func (c *cluster) verify() error {
	if err := c.shutdown(); err != nil {
		return err
	}
	if err := c.leader.built.check(); err != nil {
		return err
	}
	if c.dir == "" {
		return nil
	}
	return verifyRecovery(c.spec.y.build, c.sc, c.spec.threads, c.dir, c.leader.heap())
}
