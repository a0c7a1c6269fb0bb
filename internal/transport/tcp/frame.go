// Package tcp is the real wire under the mpi runtime: one OS process per
// rank, a full mesh of TCP connections, length-prefixed CRC32C-checked
// frames. It implements mpi.Transport with the robustness a real network
// demands — connection establishment with capped exponential backoff and
// jitter, per-operation deadlines, automatic reconnect with sequence-based
// retransmission and duplicate suppression (so idempotent delivery survives
// connection resets and corrupted frames), heartbeat-based failure
// detection feeding the runtime's watchdog, and a deterministic network
// fault injector (partitions, slow links, resets, frame corruption) for
// chaos testing.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"paralagg/internal/mpi"
)

// Frame types. hello opens (and re-opens) a connection, carrying the
// speaker's rank and its cumulative receive position so the other side can
// prune its outbox and retransmit exactly the undelivered tail. data
// carries one mpi message. heartbeat proves liveness and piggybacks the
// cumulative ack. bye announces a clean departure, so closed connections
// from a finished rank are not mistaken for a crash.
const (
	ftHello byte = iota + 1
	ftData
	ftHeartbeat
	ftBye
)

// helloMagic guards against stray connections: a hello whose tag field does
// not carry it is rejected.
const helloMagic int64 = 0x50_41_52_41_4c_41_47 // "PARALAG"

// frame is one unit on the wire.
//
// Encoding (little-endian):
//
//	u32  length of everything after this field
//	u8   type
//	u32  src rank
//	i64  tag (helloMagic for hello frames)
//	u64  seq (data: message sequence; hello/heartbeat: cumulative ack)
//	u64* payload words
//	u32  CRC32C over type..payload
//
// The CRC is shared with the in-process runtime's message checksums
// (mpi.CRC32C), so integrity is end to end regardless of transport.
type frame struct {
	typ   byte
	src   uint32
	tag   int64
	seq   uint64
	words []mpi.Word
}

// frameHeaderBytes is the encoded size of type+src+tag+seq.
const frameHeaderBytes = 1 + 4 + 8 + 8

// maxFrameBytes bounds a frame's declared length so a corrupted or hostile
// length prefix cannot make the reader allocate unboundedly. It is the limit
// on a handshaken connection; one that has not yet proved it speaks the
// protocol gets helloFrameBytes — a hello is the header, one epoch word and
// the CRC — so four stray bytes from anything that can reach the listener
// cannot cost a gigabyte.
const (
	maxFrameBytes   = 1 << 30
	helloFrameBytes = frameHeaderBytes + 8 + 4
)

// errCRC marks a frame whose checksum did not match: it was corrupted in
// flight. The connection is torn down and the frame retransmitted.
var errCRC = errors.New("tcp: frame failed CRC32C check")

// frameWireBytes is the encoded size of a frame carrying nwords payload words
// (length prefix, header, payload, CRC); payloadWords is its inverse.
func frameWireBytes(nwords int) int { return 4 + frameHeaderBytes + nwords*8 + 4 }
func payloadWords(encLen int) int   { return (encLen - frameWireBytes(0)) / 8 }

// putFrame writes f's wire encoding (including the length prefix) into buf,
// exactly frameWireBytes(len(f.words)) long: every word stored into place.
func putFrame(buf []byte, f frame) {
	le := binary.LittleEndian
	le.PutUint32(buf, uint32(len(buf)-4))
	buf[4] = f.typ
	le.PutUint32(buf[5:], f.src)
	le.PutUint64(buf[9:], uint64(f.tag))
	le.PutUint64(buf[17:], f.seq)
	body := buf[4+frameHeaderBytes : len(buf)-4 : len(buf)-4]
	for i, w := range f.words {
		le.PutUint64(body[i*8:], w)
	}
	le.PutUint32(buf[len(buf)-4:], mpi.CRC32C(buf[4:len(buf)-4]))
}

// encodeFrame appends f's wire encoding to buf and returns the extended
// slice (control frames and tests; the data path encodes in place into an
// outbox buffer).
func encodeFrame(buf []byte, f frame) []byte {
	start, n := len(buf), frameWireBytes(len(f.words))
	if cap(buf)-start < n {
		buf = append(make([]byte, 0, start+n), buf...)
	}
	buf = buf[:start+n]
	putFrame(buf[start:], f)
	return buf
}

// frameReader reads frames off one byte stream. It owns what a read needs
// between frames (length prefix, body scratch), so a steady-state read
// allocates nothing of its own. lend, when non-nil, supplies the buffer a
// data frame's payload is decoded into (whoever the frame is delivered to
// recycles it); control payloads and readers without lend get a fresh slice.
type frameReader struct {
	r       io.Reader
	lend    func(n int) []mpi.Word
	scratch []byte
	lenBuf  [4]byte
}

// read reads one frame of at most limit bytes (after the length prefix). It
// returns errCRC when the checksum does not match and io errors verbatim; a
// declared length that is out of range or leaves a payload that is not whole
// words is rejected before anything is sized from it.
func (fr *frameReader) read(limit uint32) (frame, error) {
	if _, err := io.ReadFull(fr.r, fr.lenBuf[:]); err != nil {
		return frame{}, err
	}
	total := binary.LittleEndian.Uint32(fr.lenBuf[:])
	if total < frameHeaderBytes+4 || total > limit || (total-frameHeaderBytes-4)%8 != 0 {
		return frame{}, fmt.Errorf("tcp: frame length %d out of range", total)
	}
	if cap(fr.scratch) < int(total) {
		fr.scratch = make([]byte, total)
	}
	buf := fr.scratch[:total]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return frame{}, err
	}
	body := buf[:total-4]
	wantCRC := binary.LittleEndian.Uint32(buf[total-4:])
	if mpi.CRC32C(body) != wantCRC {
		return frame{}, errCRC
	}
	f := frame{
		typ: body[0],
		src: binary.LittleEndian.Uint32(body[1:5]),
		tag: int64(binary.LittleEndian.Uint64(body[5:13])),
		seq: binary.LittleEndian.Uint64(body[13:21]),
	}
	nwords := (len(body) - frameHeaderBytes) / 8
	if nwords > 0 {
		if fr.lend != nil && f.typ == ftData {
			f.words = fr.lend(nwords)
		} else {
			f.words = make([]mpi.Word, nwords)
		}
		for i := range f.words {
			f.words[i] = binary.LittleEndian.Uint64(body[frameHeaderBytes+i*8:])
		}
	}
	return f, nil
}

// readFrame reads one frame from r with a throwaway frameReader over the
// caller's scratch: the handshake's single bare read, and tests.
func readFrame(r io.Reader, scratch *[]byte, limit uint32) (frame, error) {
	fr := frameReader{r: r, scratch: *scratch}
	f, err := fr.read(limit)
	*scratch = fr.scratch
	return f, err
}
