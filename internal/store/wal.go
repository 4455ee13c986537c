package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The journal is a sequence of CRC-framed records:
//
//	[4-byte little-endian payload length]
//	[4-byte little-endian CRC-32 (IEEE) of the payload]
//	[payload]
//
// A crash can only damage the tail (the file is append-only and frames
// are written in one Write call), so replay treats the first framing
// violation — short header, short payload, CRC mismatch, or an
// implausible length — as the end of the journal: everything before it
// is kept, everything from it on is moved to journal.wal.corrupt and
// counted in the truncation metric. Damage short of the tail (a bad
// disk block) is handled the same way, so the intact frames after it
// survive only in that file. Replay never fails the caller on
// corruption.

// frameHeaderSize is the fixed per-record framing overhead.
const frameHeaderSize = 8

// maxFrameSize bounds a single record. A corrupted length field must not
// make replay allocate gigabytes; anything larger than this is treated
// as tail corruption. 64 MiB comfortably holds the largest accepted BLIF
// body (16 MiB default) plus its result and ledger.
const maxFrameSize = 64 << 20

// appendFrame encodes one framed record into w. It returns the framing
// error of the underlying writer, if any.
func appendFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrameSize {
		return fmt.Errorf("store: record of %d bytes exceeds frame limit %d", len(payload), maxFrameSize)
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderSize:], payload)
	_, err := w.Write(buf)
	return err
}

// readFrames decodes framed records from r, calling fn for each payload.
// fn reports whether the payload was accepted; a rejected payload (e.g.
// an unparsable record inside an intact frame) ends replay exactly like
// frame corruption. readFrames returns the byte offset just past the
// last accepted frame and whether the journal ended in a corrupt tail
// (true) or cleanly (false).
func readFrames(r io.Reader, fn func(payload []byte) bool) (good int64, corrupt bool) {
	var off int64
	hdr := make([]byte, frameHeaderSize)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			// io.EOF is a clean end; anything else (including
			// io.ErrUnexpectedEOF from a short header) is a damaged tail.
			return off, !errors.Is(err, io.EOF)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxFrameSize {
			return off, true
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, true
		}
		if crc32.ChecksumIEEE(payload) != want {
			return off, true
		}
		if !fn(payload) {
			return off, true
		}
		off += frameHeaderSize + int64(n)
	}
}
