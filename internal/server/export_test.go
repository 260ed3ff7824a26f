package server

import "sync/atomic"

// ReplyQueueDepth is a connection's reply-queue capacity.
const ReplyQueueDepth = replyQueueDepth

// ClaimedShards counts the shards whose thread claimed its durability
// wait on the store: all of them on a durable leader, none otherwise.
func (s *Server) ClaimedShards() int {
	n := 0
	for _, sh := range s.shards {
		if sh.claimed {
			n++
		}
	}
	return n
}

// SocketWrites counts the socket writes the connections of every server
// in the test binary make, replication streams included.
var SocketWrites atomic.Uint64

func init() { socketWrites = &SocketWrites }
