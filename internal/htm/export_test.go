package htm

import "sihtm/internal/memsim"

// LockReaderTable takes the mutex of every reader-table shard and returns
// the function that releases them, so a test can show which operations
// never reach for one.
func (m *Machine) LockReaderTable() (unlock func()) {
	for i := range m.shards {
		m.shards[i].mu.Lock()
	}
	return func() {
		for i := range m.shards {
			m.shards[i].mu.Unlock()
		}
	}
}

// OwnerWord returns the ownership word of the line holding a, and the
// hardware thread it names (-1 when the line is free).
func (m *Machine) OwnerWord(a memsim.Addr) (word uint32, thread int) {
	word = m.owner[memsim.LineOf(a)].Load()
	if word == 0 {
		return 0, -1
	}
	return word, m.ownerTx(word).th.id
}

// SetPlainPublished installs f to run inside every plain store and CAS,
// after the heap word is written and before the line's tracked readers
// are doomed; nil removes it. Set it only while no other thread issues
// plain stores.
func (m *Machine) SetPlainPublished(f func()) { m.plainPublished = f }
