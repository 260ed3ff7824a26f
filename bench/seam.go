package main

// seam.go is the only file of the benchmark that imports the program
// (sihtm/internal/...). Every other file reaches it through the aliases
// and constructors below, so this file is the complete list of program
// signatures the frozen benchmark depends on (README.md repeats it).

import (
	"net"

	"sihtm/internal/durable"
	"sihtm/internal/experiments"
	"sihtm/internal/footprint"
	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/replica"
	"sihtm/internal/rng"
	"sihtm/internal/server"
	"sihtm/internal/stats"
	"sihtm/internal/tm"
	"sihtm/internal/topology"
	"sihtm/internal/wal"
	"sihtm/internal/wire"
	"sihtm/internal/workload/engine"
)

// Types the benchmark names. Methods and fields of the values behind
// them are used directly; README.md lists which.
type (
	Addr    = memsim.Addr
	Heap    = memsim.Heap
	Machine = htm.Machine

	Kind       = tm.Kind
	Ops        = tm.Ops
	System     = tm.System
	CommitHook = tm.CommitHook
	Hookable   = tm.HookableSystem

	Backend = engine.Backend
	Session = engine.Session

	Server      = server.Server
	ServerStats = wire.ServerStats
	WireOp      = wire.Op
	WireResult  = wire.Result
	WireType    = wire.Type

	Store    = durable.Store
	Log      = wal.Log
	Entry    = footprint.Entry
	Follower = replica.Follower

	Collector = stats.Collector
	TMStats   = stats.Stats
)

const (
	KindUpdate   = tm.KindUpdate
	KindReadOnly = tm.KindReadOnly

	OpGet = wire.OpGet
	OpRMW = wire.OpRMW

	TReply = wire.TReply

	AbortConflict = stats.AbortTransactional
	AbortCapacity = stats.AbortCapacity
)

// The untraced wire entry points.
var (
	AppendOpsFrame     = wire.AppendOpsFrame
	ReadFrame          = wire.ReadFrame
	ParseFrame         = wire.ParseFrame
	ParseOps           = wire.ParseOps
	ParseResults       = wire.ParseResults
	AppendResultsFrame = wire.AppendResultsFrame
)

// Everything else, by layer.
var (
	Stream = rng.Stream // rng.Stream(seed, thread)

	LineOf = memsim.LineOf

	NewDurableBackend = engine.NewDurableBackend
	InitialValue      = engine.InitialValue

	DurableRecover = durable.Recover
	WALReplay      = wal.Replay
)

// newHeapLines is memsim.NewHeapLines.
func newHeapLines(lines int) *Heap { return memsim.NewHeapLines(lines) }

// newMachine is htm.NewMachine on the paper's topology.
func newMachine(h *Heap) *Machine {
	return htm.NewMachine(h, htm.Config{Topology: topology.Paper()})
}

// newHashmap builds and populates the hash-map backend: keys 0..keys-1,
// each holding InitialValue(key), chains of keys/buckets nodes.
func newHashmap(h *Heap, buckets, keys int) Backend {
	b := engine.NewHashmapBackend(h, buckets)
	engine.Populate(b, engine.Spec{Keys: keys})
	return b
}

// hashmapSize is the live key count of a hash-map backend.
func hashmapSize(b Backend) int { return b.(*engine.HashmapBackend).Map().Size() }

// newSystem is experiments.NewSystem ("si-htm", "htm").
func newSystem(name string, m *Machine, threads int) (System, error) {
	return experiments.NewSystem(name, m, m.Heap(), threads)
}

// newServer is server.New at the benchmark's fixed settings: BatchMax 32,
// AdmitWait 0, adaptive controller off, private telemetry registry, no
// listener for it. store is nil on a volatile node.
func newServer(b Backend, sys System, shards int, store *Store) (*Server, error) {
	return server.New(server.Config{
		Backend:  b,
		System:   sys,
		Shards:   shards,
		BatchMax: 32,
		Store:    store,
	})
}

// openStore is durable.Open with the benchmark's flush policy.
func openStore(h *Heap, m *Machine, logPath string) (*Store, error) {
	return durable.Open(h, logPath, m.Topology().MaxThreads(), durable.Config{Window: groupCommitWindow, WaitAck: true})
}

// newFollower is replica.NewFollower over a dial function.
func newFollower(h *Heap, dial func() (net.Conn, error)) (*Follower, error) {
	return replica.NewFollower(replica.FollowerConfig{Heap: h, Dial: dial})
}

// createScratchLog is wal.Create without the flush daemon: the caller
// drives Sync.
func createScratchLog(path string) (*Log, error) {
	return wal.Create(path, wal.Config{NoDaemon: true})
}
