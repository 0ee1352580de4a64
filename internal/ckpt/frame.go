package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Framed-payload wire format of a PFCKPT training snapshot:
//
//	magic   [6]byte  "PFCKPT"
//	version uint32   little-endian format version
//	length  uint64   little-endian payload byte count
//	crc     uint32   little-endian CRC-32C (Castagnoli) of the payload
//	payload []byte
//
// The frame guarantees a truncated or bit-flipped file is detected before a
// single payload byte reaches a decoder: magic gates the file type, version
// gates the format, length guards truncation, and the CRC guards the bytes.

// maxPayloadBytes caps the header's length field. The field is untrusted
// input: a bit-flipped length with an intact magic must produce the same
// descriptive error as any other corruption, not a multi-exabyte
// allocation. 4 GiB is orders of magnitude above any snapshot this repo's
// CPU-scale models can produce.
const maxPayloadBytes = 4 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// writeFramed writes payload to w under a magic/version/length/CRC header.
func writeFramed(w io.Writer, payload []byte) error {
	hdr := make([]byte, len(magic)+16)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[len(magic)+4:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[len(magic)+12:], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFramed reads a frame written by writeFramed, verifying magic,
// version, length, and CRC before returning the payload.
func readFramed(r io.Reader) ([]byte, error) {
	hdr := make([]byte, len(magic)+16)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("ckpt: truncated header: %w", err)
	}
	if !bytes.Equal(hdr[:len(magic)], magic) {
		return nil, fmt.Errorf("ckpt: bad magic %q — not a checkpoint file", hdr[:len(magic)])
	}
	version := binary.LittleEndian.Uint32(hdr[len(magic):])
	if version > FormatVersion {
		return nil, fmt.Errorf("ckpt: checkpoint file written by a newer format (version %d, this build reads <= %d)",
			version, FormatVersion)
	}
	length := binary.LittleEndian.Uint64(hdr[len(magic)+4:])
	wantCRC := binary.LittleEndian.Uint32(hdr[len(magic)+12:])
	if length > maxPayloadBytes {
		return nil, fmt.Errorf("ckpt: implausible payload length %d (file corrupt)", length)
	}
	// Grow the buffer from what the reader actually delivers instead of
	// trusting the length field with one up-front allocation: a corrupt
	// length on a short file errors out after reading the real bytes.
	var payload bytes.Buffer
	if n, err := io.CopyN(&payload, r, int64(length)); err != nil {
		return nil, fmt.Errorf("ckpt: truncated payload (read %d of %d bytes): %w", n, length, err)
	}
	if got := crc32.Checksum(payload.Bytes(), crcTable); got != wantCRC {
		return nil, fmt.Errorf("ckpt: payload CRC mismatch (file corrupt): got %08x want %08x", got, wantCRC)
	}
	return payload.Bytes(), nil
}
