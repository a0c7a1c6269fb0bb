package mpi

import (
	"errors"
	"hash/crc32"
	"unsafe"
)

// End-to-end message integrity. Every hop's payload is covered by a
// CRC32C (Castagnoli) checksum computed at the send side and verified at the
// receive side, so a bit flip on the (simulated or real) wire surfaces as a
// structured per-rank error instead of a silently wrong answer. The same
// polynomial and helpers are shared with the TCP transport's frame format.

// castagnoli is the CRC32C table used for all integrity checks. CRC32C is
// the polynomial real transports (iSCSI, ext4, TCP offload engines) use and
// has hardware support on both amd64 and arm64 via hash/crc32.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the Castagnoli CRC of data. The TCP framing uses it over
// encoded frame bytes; ChecksumWords uses it over word payloads.
func CRC32C(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// hostLittleEndian reports whether a Word's bytes already sit in memory in
// wire order, so a payload can be checksummed in place.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ChecksumWords returns the CRC32C of a word payload in its little-endian
// wire representation. It is the integrity check both the in-process
// transport and the TCP frame format apply to message bodies — several
// times per message, so it must not allocate: staging the bytes in a local
// array would (the array escapes through hash/crc32's function-pointer
// dispatch). Little-endian hosts checksum the words' own bytes in one
// hardware-accelerated pass; others fold byte by byte through the table.
func ChecksumWords(words []Word) uint32 {
	if len(words) == 0 {
		return 0
	}
	if hostLittleEndian {
		return crc32.Update(0, castagnoli, unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*WordBytes))
	}
	return checksumWordsPortable(words)
}

// checksumWordsPortable is ChecksumWords without the in-place byte view.
func checksumWordsPortable(words []Word) uint32 {
	crc := ^uint32(0)
	for _, w := range words {
		for i := 0; i < WordBytes; i++ {
			crc = castagnoli[byte(crc)^byte(w>>(8*i))] ^ crc>>8
		}
	}
	return ^crc
}

// ErrCorruptMessage marks a received payload whose CRC32C does not match
// what the sender computed: the message was corrupted in flight. The
// receiving rank fails with an ErrRankFailed naming the sender, so
// corruption is attributed to the link it happened on and recovery can
// restart from a checkpoint instead of committing a wrong answer.
var ErrCorruptMessage = errors.New("message failed CRC32C integrity check")
