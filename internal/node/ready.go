package node

import (
	"fmt"
	"sync"
)

// followerProbe is the slice of replica.Follower that readiness needs.
type followerProbe interface {
	Promoted() bool
	Watermark() uint64
	LeaderSeq() uint64
}

// readyProbe builds the /readyz callback: a draining server admits
// nothing; an unpromoted follower is additionally ready only while
// caught up with the leader or still making progress (a stalled
// watermark behind a live leader means reads serve an ever-staler
// snapshot). fol may be nil for leaders and volatile servers.
func readyProbe(draining func() bool, fol followerProbe) func() error {
	var mu sync.Mutex
	var lastWM uint64
	return func() error {
		if draining() {
			return fmt.Errorf("draining")
		}
		if fol != nil && !fol.Promoted() {
			wm, leader := fol.Watermark(), fol.LeaderSeq()
			mu.Lock()
			advanced := wm > lastWM
			if advanced {
				lastWM = wm
			}
			mu.Unlock()
			if wm < leader && !advanced {
				return fmt.Errorf("replication stalled: watermark %d behind leader %d and not advancing", wm, leader)
			}
		}
		return nil
	}
}
