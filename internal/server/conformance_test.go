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
	"sihtm/internal/topology"
	"sihtm/internal/workload/engine"
	"sihtm/internal/workload/engine/enginetest"
)

// hashmapInstance is the in-process build every maker here serves: a
// hash map under SI-HTM, its heap sized for the suite's
// out-of-keyspace inserts (keys up to 2×keys plus a few far outliers;
// the engine's slack absorbs them).
func hashmapInstance(keys, threads int) enginetest.Instance {
	spec := engine.Spec{Name: "conformance", Keys: keys * 2}
	buckets := max(keys/4, 1)
	heap := memsim.NewHeapLines(engine.HashmapHeapLines(spec, buckets))
	m := htm.NewMachine(heap, htm.Config{Topology: topology.Paper()})
	return enginetest.Instance{
		Backend: engine.NewHashmapBackend(heap, buckets),
		Heap:    heap,
		Machine: m,
		Sys:     sihtm.NewSystem(m, threads, sihtm.Config{}),
		Cleanup: func() {},
	}
}

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
		in := hashmapInstance(keys, threads)
		cfg := server.Config{Backend: in.Backend, System: in.Sys, Shards: threads, BatchMax: 8}
		var store *durable.Store
		if durableOn {
			var err error
			store, err = durable.Open(in.Heap, filepath.Join(t.TempDir(), "wal.log"),
				in.Machine.Topology().MaxThreads(), durable.Config{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.System = store.Attach(in.Sys, in.Machine)
			cfg.Backend = engine.NewDurableBackend(in.Backend, store)
			cfg.Store = store
		}

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
		in.Backend = rb
		in.Sys = engine.NewRemoteSystem("si-htm", threads)
		in.Cleanup = func() {
			rb.Close()
			srv.Drain()
			if store != nil {
				store.Close()
			}
		}
		return in
	}
}

func TestRemoteBackendConformance(t *testing.T) {
	enginetest.Run(t, "remote", remoteMaker(false))
}

func TestRemoteDurableBackendConformance(t *testing.T) {
	enginetest.Run(t, "remote-durable", remoteMaker(true))
}

// TestLocalAndDeferredAgree: the driver's two paths leave the same
// contents — each planned op through engine.Exec in process, and the
// whole plan deferred over loopback for the server's Exec.
func TestLocalAndDeferredAgree(t *testing.T) {
	local := func(t *testing.T, keys, threads int) enginetest.Instance {
		return hashmapInstance(keys, threads)
	}
	enginetest.Agree(t, local, remoteMaker(false))
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
		// Leader: the standard durable server (every acknowledged commit
		// sits at or below the WAL's durable frontier, which is what makes
		// the catch-up gate sufficient).
		in := hashmapInstance(keys, threads)
		store, err := durable.Open(in.Heap, filepath.Join(t.TempDir(), "wal.log"),
			in.Machine.Topology().MaxThreads(), durable.Config{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Backend:  engine.NewDurableBackend(in.Backend, store),
			System:   store.Attach(in.Sys, in.Machine),
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
		fin := hashmapInstance(keys, threads)
		leaderAddr := addr.String()
		fol, err := replica.NewFollower(replica.FollowerConfig{
			Heap: fin.Heap,
			Dial: func() (net.Conn, error) { return net.Dial("tcp", leaderAddr) },
		})
		if err != nil {
			t.Fatal(err)
		}
		fsrv, err := server.New(server.Config{
			Backend:  fin.Backend,
			System:   fin.Sys,
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
		in.Backend = rb
		in.Sys = engine.NewRemoteSystem("si-htm", threads)
		in.Cleanup = func() {
			rb.Close()
			fsrv.Drain()
			fol.Close()
			srv.Drain()
			store.Close()
		}
		return in
	}
}

func TestReplicaBackendConformance(t *testing.T) {
	enginetest.Run(t, "replica", replicaMaker())
}
