package server_test

import (
	"net"
	"path/filepath"
	"testing"

	"sihtm/internal/durable"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/replica"
	"sihtm/internal/server"
	"sihtm/internal/sihtm"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/workload/engine"
	"sihtm/internal/workload/engine/enginetest"
)

// remoteMaker builds a RemoteBackend instance over a loopback server
// for the shared engine conformance suite: the remote backend must
// expose exactly the key-value semantics of the in-process backends it
// proxies. durableOn runs the server with the WAL store attached, so
// the suite also covers the durable wrapper end to end (every
// conformance transaction is acknowledged only after its redo record
// is fsynced).
func remoteMaker(durableOn bool) enginetest.Maker {
	return func(t *testing.T, keys, threads int) enginetest.Instance {
		t.Helper()
		// Size the heap for the suite's out-of-keyspace inserts (keys up
		// to 2×keys plus a few far outliers); the engine's slack absorbs
		// them.
		spec := engine.Spec{Name: "conformance", Keys: keys * 2}
		buckets := keys / 4
		if buckets < 1 {
			buckets = 1
		}
		heap := memsim.NewHeapLines(engine.HashmapHeapLines(spec, buckets))
		m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
		backend := engine.NewHashmapBackend(heap, buckets)

		var sys tm.System = sihtm.NewSystem(m, threads, sihtm.Config{})
		var served engine.Backend = backend
		cfg := server.Config{Shards: threads, BatchMax: 8}
		var store *durable.Store
		if durableOn {
			dir := t.TempDir()
			var err error
			store, err = durable.Open(heap, filepath.Join(dir, "wal.log"),
				m.Topology().MaxThreads(), durable.Config{})
			if err != nil {
				t.Fatal(err)
			}
			sys = store.Attach(sys, m)
			served = engine.NewDurableBackend(backend, store)
			cfg.Store = store
		}
		cfg.Backend = served
		cfg.System = sys

		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()

		conns := (threads + 1) / 2
		rb, err := engine.DialRemote(addr.String(), conns)
		if err != nil {
			t.Fatal(err)
		}
		return enginetest.Instance{
			Backend: rb,
			Heap:    heap,
			Machine: m,
			Sys:     engine.NewRemoteSystem("si-htm", threads),
			Cleanup: func() {
				rb.Close()
				srv.Drain()
				if store != nil {
					store.Close()
				}
			},
		}
	}
}

func TestRemoteBackendConformance(t *testing.T) {
	enginetest.Run(t, "remote", remoteMaker(false))
}

func TestRemoteDurableBackendConformance(t *testing.T) {
	enginetest.Run(t, "remote-durable", remoteMaker(true))
}

// replicaMaker builds a two-node cluster — a durable leader and a
// follower replaying its WAL stream — fronted by the routing
// ReplicaBackend in SyncReads mode: every follower-bound read first
// waits for the follower's watermark to catch the leader's durable
// frontier. Under that gate the cluster must be observationally
// identical to a single node, which is exactly what the conformance
// suite checks — so stale-read semantics ("a replica read is a clean
// prefix, and a caught-up replica read is current") are pinned by
// tests rather than prose.
func replicaMaker() enginetest.Maker {
	return func(t *testing.T, keys, threads int) enginetest.Instance {
		t.Helper()
		spec := engine.Spec{Name: "conformance", Keys: keys * 2}
		buckets := keys / 4
		if buckets < 1 {
			buckets = 1
		}

		// Leader: the standard durable server (every acknowledged commit
		// sits at or below the WAL's durable frontier, which is what makes
		// the catch-up gate sufficient).
		heap := memsim.NewHeapLines(engine.HashmapHeapLines(spec, buckets))
		m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
		backend := engine.NewHashmapBackend(heap, buckets)
		store, err := durable.Open(heap, filepath.Join(t.TempDir(), "wal.log"),
			m.Topology().MaxThreads(), durable.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sys := store.Attach(sihtm.NewSystem(m, threads, sihtm.Config{}), m)
		srv, err := server.New(server.Config{
			Backend:  engine.NewDurableBackend(backend, store),
			System:   sys,
			Store:    store,
			Shards:   threads,
			BatchMax: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()

		// Follower: the identical deterministic backend build over its
		// own heap (same base image the leader's log started from), fed
		// by a replica.Follower streaming from the leader.
		fheap := memsim.NewHeapLines(engine.HashmapHeapLines(spec, buckets))
		fm := htm.NewMachine(fheap, htm.Config{Topology: topology.Paper()})
		fbackend := engine.NewHashmapBackend(fheap, buckets)
		leaderAddr := addr.String()
		fol, err := replica.NewFollower(replica.FollowerConfig{
			Heap: fheap,
			Dial: func() (net.Conn, error) { return net.Dial("tcp", leaderAddr) },
		})
		if err != nil {
			t.Fatal(err)
		}
		fsrv, err := server.New(server.Config{
			Backend:  fbackend,
			System:   sihtm.NewSystem(fm, threads, sihtm.Config{}),
			Shards:   threads,
			BatchMax: 8,
			Follower: fol,
		})
		if err != nil {
			t.Fatal(err)
		}
		faddr, err := fsrv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go fsrv.Serve()
		fol.Start()

		conns := (threads + 1) / 2
		rb, err := engine.DialReplica(addr.String(), []string{faddr.String()}, conns)
		if err != nil {
			t.Fatal(err)
		}
		rb.SyncReads = true
		return enginetest.Instance{
			Backend: rb,
			Heap:    heap,
			Machine: m,
			Sys:     engine.NewRemoteSystem("si-htm", threads),
			Cleanup: func() {
				rb.Close()
				fsrv.Drain()
				fol.Close()
				srv.Drain()
				store.Close()
			},
		}
	}
}

func TestReplicaBackendConformance(t *testing.T) {
	enginetest.Run(t, "replica", replicaMaker())
}
