package tm

import (
	"runtime"

	"sihtm/internal/htm"
	"sihtm/internal/stats"
)

// DefaultRetries is the hardware attempt budget per transaction before
// the SGL fall-back, matching the artifact's default retry budget.
const DefaultRetries = 10

// Retry is the one statement of the retry policy the HTM-based systems
// (SI-HTM, HTM, P8TM) share. It calls attempt — one hardware attempt,
// returning nil on commit — up to retries times (0 means
// DefaultRetries), accounting each abort on l, and reports whether an
// attempt committed; on false the caller takes its SGL fall-back.
//
// Capacity aborts carry the POWER TEXASR persistence hint: a footprint
// that overflowed the TMCAM will overflow again, so after one grace
// retry the transaction heads straight for the fall-back.
func Retry(retries int, l stats.Thread, attempt func() *htm.Abort) bool {
	if retries == 0 {
		retries = DefaultRetries
	}
	capacityAborts := 0
	for n := 0; n < retries && capacityAborts < 2; n++ {
		ab := attempt()
		if ab == nil {
			return true
		}
		if ab.Code == htm.CodeCapacity {
			capacityAborts++
		}
		l.Abort(AbortKindOf(ab.Code))
		runtime.Gosched()
	}
	return false
}

// Fallback is the serial publication path every lock-based system ends
// in (the SGL fall-backs of SI-HTM, HTM and P8TM, and every transaction
// of the all-serial SGL system). Systems embed it, which gives them
// HookableSystem's SetCommitHook; hardware commits reach the hook
// through the machine instead (htm.CommitHook).
type Fallback struct {
	hook CommitHook
	recs []Recorder // one per thread
}

// NewFallback sizes the path for `threads` worker threads.
func NewFallback(threads int) Fallback {
	return Fallback{recs: make([]Recorder, threads)}
}

// SetCommitHook implements HookableSystem for the serial path. Call
// before any transaction runs.
func (f *Fallback) SetCommitHook(h CommitHook) { f.hook = h }

// RunSerial executes body for the lock holder — serially and
// non-transactionally over th's plain accesses — and accounts the
// fall-back on l. The caller holds the global lock and has quiesced
// whatever its protocol requires, so no hardware commit is still
// publishing. With a commit hook installed the body runs against the
// thread's Recorder, so the write set is captured and published through
// the durability seam, and the record's sequence number agrees with the
// serialization order.
func (f *Fallback) RunSerial(thread int, th *htm.Thread, l stats.Thread, body func(Ops)) {
	l.Fallback()
	if f.hook == nil {
		body(PlainOps{Th: th})
		return
	}
	rec := &f.recs[thread]
	rec.Begin(PlainOps{Th: th})
	body(rec)
	rec.Flush(thread, f.hook)
}
