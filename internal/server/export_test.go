package server

import "sync/atomic"

// ReplyQueueDepth is a connection's reply-queue capacity.
const ReplyQueueDepth = replyQueueDepth

// SocketWrites counts the socket writes the connections of every server
// in the test binary make, replication streams included.
var SocketWrites atomic.Uint64

func init() { socketWrites = &SocketWrites }
