package sihtm

import "sihtm/internal/tm"

// AtomicBatch implements the paper's §6 "batching alternative": instead of
// idling through one safety wait per transaction, a thread runs several
// transaction bodies inside a single ROT and pays a single quiescence and
// a single hardware commit for the whole group. The group commits
// atomically; if any body's execution aborts, the whole group retries, and
// after the retry budget the group runs serially under the global lock.
// It is Atomic over the composite body, so the retry rule, the fall-back
// and the commit hook are Atomic's; only the accounting differs (one
// commit per body).
//
// Read-only bodies in the batch execute through the ROT as well (their
// reads are untracked and free); an all-read-only batch still skips the
// safety wait only if the fast path is taken per body via Atomic, so
// callers should batch update-heavy streams.
func (s *System) AtomicBatch(thread int, bodies []func(tm.Ops)) {
	if len(bodies) == 0 {
		return
	}
	s.update(thread, false, len(bodies), func(ops tm.Ops) {
		for _, body := range bodies {
			body(ops)
		}
	})
}
