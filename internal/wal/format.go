package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"sihtm/internal/footprint"
	"sihtm/internal/memsim"
)

// On-disk record framing (all fields little-endian):
//
//	offset  size  field
//	0       4     magic  = recordMagic ("WALR")
//	4       8     seq    — commit sequence number (LSN); strictly
//	              increasing by 1 in file order
//	12      4     count  — number of (addr, val) word pairs
//	16      16·n  pairs  — addr uint64, val uint64, first-write order,
//	              last-write-wins values (one pair per distinct address)
//	16+16·n 4     crc    — CRC-32C (Castagnoli) over bytes [0, 16+16·n)
//
// One record is one committed transaction's redo image. The framing is
// self-validating: replay accepts the longest prefix of records whose
// magic, CRC and sequence continuity all check out, and discards the
// torn tail a crash mid-write leaves behind. The same bytes are the
// replication format (see the package comment).
const (
	recordMagic   = uint32(0x57414C52) // "WALR"
	headerBytes   = 16
	pairBytes     = 16
	trailerBytes  = 4
	maxPairs      = 1 << 28 // sanity bound on count during replay
	recordMinSize = headerBytes + trailerBytes
)

// castagnoli is the CRC-32C table shared by append and replay.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordSize returns the framed size of a record with n pairs.
func recordSize(n int) int { return headerBytes + n*pairBytes + trailerBytes }

// appendRecord encodes one record onto buf and returns the extended
// slice. It allocates only when buf's capacity is exhausted (append
// growth), so a retained buffer makes steady-state encoding
// allocation-free.
func appendRecord(buf []byte, seq uint64, entries []footprint.Entry) []byte {
	start := len(buf)
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], recordMagic)
	binary.LittleEndian.PutUint64(hdr[4:], seq)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(entries)))
	buf = append(buf, hdr[:]...)
	for _, e := range entries {
		var pair [pairBytes]byte
		binary.LittleEndian.PutUint64(pair[0:], uint64(e.Addr))
		binary.LittleEndian.PutUint64(pair[8:], e.Val)
		buf = append(buf, pair[:]...)
	}
	crc := crc32.Checksum(buf[start:], castagnoli)
	var tr [trailerBytes]byte
	binary.LittleEndian.PutUint32(tr[:], crc)
	return append(buf, tr[:]...)
}

// recStatus classifies a prefix-parse attempt: complete record, not
// enough bytes yet, or bytes that can never frame a record.
type recStatus uint8

const (
	recOK recStatus = iota
	// recShort: the buffer holds a so-far-valid but incomplete record; a
	// live tail reader should wait for more bytes, a replay treats it as
	// the torn tail.
	recShort
	// recBad: the bytes are damaged (bad magic, absurd count, CRC
	// mismatch on a complete record) — corruption, not a short read.
	recBad
)

// frameRecord validates the record at the head of b without decoding
// it, distinguishing "need more bytes" from "corrupt" so a tailer
// following a live file can park on a partial flush without mistaking
// it for damage.
func frameRecord(b []byte) (seq uint64, size int, st recStatus) {
	if len(b) < recordMinSize {
		return 0, 0, recShort
	}
	if binary.LittleEndian.Uint32(b[0:]) != recordMagic {
		return 0, 0, recBad
	}
	count := binary.LittleEndian.Uint32(b[12:])
	if count > maxPairs {
		return 0, 0, recBad
	}
	size = recordSize(int(count))
	if len(b) < size {
		return 0, 0, recShort
	}
	want := binary.LittleEndian.Uint32(b[size-trailerBytes:])
	if crc32.Checksum(b[:size-trailerBytes], castagnoli) != want {
		return 0, 0, recBad
	}
	return binary.LittleEndian.Uint64(b[4:]), size, recOK
}

// ParseRecord decodes the record at the head of b into dst (reused when
// capacity allows), as wire.ParseOps does. ok is false when the bytes do
// not frame a valid record (short buffer, bad magic, absurd count or CRC
// mismatch): the torn-tail signal in a file, a damaged stream on the
// wire. It is the one decoder of the format, for log files and for the
// replication stream, which ships these bytes verbatim.
func ParseRecord(b []byte, dst []footprint.Entry) (seq uint64, entries []footprint.Entry, size int, ok bool) {
	seq, size, st := frameRecord(b)
	if st != recOK {
		return 0, dst, 0, false
	}
	dst = dst[:0]
	for off := headerBytes; off < size-trailerBytes; off += pairBytes {
		dst = append(dst, footprint.Entry{
			Addr: memsim.Addr(binary.LittleEndian.Uint64(b[off:])),
			Val:  binary.LittleEndian.Uint64(b[off+8:]),
		})
	}
	return seq, dst, size, true
}

// Redo applies one record's entries to heap: the rule crash recovery,
// log catch-up and the replication stream share. Every address is
// bounds-checked before any is stored, so a record lands whole or not
// at all, and the allocation watermark is advanced past the highest
// line the record wrote, so allocations after the replay cannot overlap
// replayed data.
func Redo(heap *memsim.Heap, entries []footprint.Entry) error {
	var hi memsim.Addr
	for _, e := range entries {
		if e.Addr >= memsim.Addr(heap.Size()) {
			return fmt.Errorf("wal: redo address %d beyond heap size %d", e.Addr, heap.Size())
		}
		hi = max(hi, e.Addr)
	}
	for _, e := range entries {
		heap.Store(e.Addr, e.Val)
	}
	if len(entries) > 0 {
		if end := min(int((memsim.LineOf(hi) + 1).FirstAddr()), heap.Size()); end > heap.Allocated() {
			heap.RestoreAllocated(end)
		}
	}
	return nil
}
