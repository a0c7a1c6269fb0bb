package mpi

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// ChecksumWords runs several times per message on every transport: it must
// equal the CRC32C of the little-endian wire bytes and must not allocate.
func TestChecksumWordsMatchesWireBytesWithoutAllocating(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096} {
		words := make([]Word, n)
		for i := range words {
			words[i] = faultHash(11, 0x5c, i, n, 0)
		}
		wire := make([]byte, n*WordBytes)
		for i, w := range words {
			binary.LittleEndian.PutUint64(wire[i*WordBytes:], w)
		}
		want := crc32.Checksum(wire, crc32.MakeTable(crc32.Castagnoli))
		if got := ChecksumWords(words); got != want {
			t.Errorf("%d words: ChecksumWords = %#x, want %#x", n, got, want)
		}
		if got := checksumWordsPortable(words); got != want {
			t.Errorf("%d words: portable fallback = %#x, want %#x", n, got, want)
		}
		var sink uint32
		if allocs := testing.AllocsPerRun(100, func() { sink += ChecksumWords(words) }); allocs != 0 {
			t.Errorf("%d words: %v allocs per checksum, want 0", n, allocs)
		}
	}
}
