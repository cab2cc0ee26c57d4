package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"time"

	"mobiledl/internal/serve"
)

// Record classes. A publish is one registry model version (bounded history
// retained per model); a checkpoint is latest-wins state under a key (the
// fedserve coordinator's round state).
const (
	classPublish    uint8 = 1
	classCheckpoint uint8 = 2
)

// record is the WAL's logical unit, gob-encoded into one frame. One struct
// covers both classes so the framing, replay, and compaction paths never
// branch on record shape.
type record struct {
	Class   uint8
	Key     string // model name (publish) or checkpoint key
	Version int
	Kind    string
	Meta    *serve.VersionMeta
	Payload []byte // weights blob (publish) or checkpoint payload
	At      time.Time
}

// frameHeader is the fixed prefix of every frame: payload length (uint32 LE)
// then CRC-32 (IEEE) of the payload. A frame is valid iff the length fits
// the remaining bytes and the checksum matches — anything else is a torn or
// corrupted tail and replay truncates there.
const frameHeader = 8

// maxRecordBytes caps one record's payload at replay, so a garbage length
// header can't provoke a giant allocation.
const maxRecordBytes = 64 << 20

func encodeRecord(rec record) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeRecord(b []byte) (record, error) {
	var rec record
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&rec); err != nil {
		return record{}, fmt.Errorf("store: decode record: %w", err)
	}
	return rec, nil
}

// frame wraps a payload in the length+CRC header.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[frameHeader:], payload)
	return out
}

// corruptChecksum flips one checksum bit in a framed record — the
// CorruptCRC failpoint's damage, applied before the bytes hit disk.
func corruptChecksum(f []byte) {
	f[4] ^= 0x01
}

// replayResult is what walking a frame stream yields: the decoded records,
// how many bytes of intact frames precede the damage (the truncation
// offset), and why the walk stopped early, if it did.
type replayResult struct {
	recs  []record
	valid int64
	torn  bool
	why   string
}

// replay walks a byte buffer of frames until EOF or the first invalid frame.
// Truncating the file to .valid removes exactly the damaged tail: a frame
// whose length header overruns the buffer (torn write), whose checksum
// mismatches (corruption), or whose payload no longer decodes all stop the
// walk — everything before it is intact and everything after it is
// unreachable anyway (frames are not self-synchronizing by design; an
// append-only log's damage is always a tail).
func replay(b []byte) replayResult {
	res := replayResult{}
	off := int64(0)
	for {
		rest := b[off:]
		if len(rest) == 0 {
			return res
		}
		if len(rest) < frameHeader {
			res.torn, res.why = true, "torn frame header"
			return res
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxRecordBytes {
			res.torn, res.why = true, fmt.Sprintf("frame length %d exceeds cap", n)
			return res
		}
		if len(rest) < frameHeader+n {
			res.torn, res.why = true, "torn frame payload"
			return res
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			res.torn, res.why = true, "checksum mismatch"
			return res
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			res.torn, res.why = true, err.Error()
			return res
		}
		off += int64(frameHeader + n)
		res.recs = append(res.recs, rec)
		res.valid = off
	}
}
