package server

// ParkDepth is the per-shard park FIFO's capacity.
const ParkDepth = parkDepth

// ParkingShards counts the shards that have a park FIFO and a release
// stage: all of them on a durable leader, none otherwise.
func (s *Server) ParkingShards() int {
	n := 0
	for _, sh := range s.shards {
		if sh.park != nil {
			n++
		}
	}
	return n
}
