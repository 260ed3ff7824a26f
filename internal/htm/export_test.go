package htm

import "sihtm/internal/memsim"

// HasReaderTable reports whether the machine has allocated its reader
// table, which only a tracked read does.
func (m *Machine) HasReaderTable() bool { return m.readers.Load() != nil }

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

// SetReadRegistered installs f to run inside every tracked read, after
// the reader's bit is set and before the line's ownership word is
// loaded; nil removes it. Set it only while no other thread tracks
// reads.
func (m *Machine) SetReadRegistered(f func()) { m.readRegistered = f }
