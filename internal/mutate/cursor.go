package mutate

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// This file is the read side of WAL replication: a Cursor that tails a log
// file which the single writer keeps appending to. The cursor never takes
// the writer lock — it reads through its own read-only file handle — so its
// correctness rests on two properties of the append path:
//
//   - frames are appended with a single write and fsynced before the commit
//     is acknowledged, so every byte before the last complete frame is
//     immutable history;
//   - a frame is accepted only when its full length is present AND its CRC
//     matches, so a concurrently-appearing partial frame (the writer's
//     in-flight write, or a torn tail after a crash) is indistinguishable
//     from "no frame yet" and is never surfaced to the consumer.
//
// Log truncation (TruncatePrefix) replaces the file via rename, which
// invalidates the cursor's offset-to-frame mapping. The cursor detects that
// — a changed inode — and, defensively, a file shrunk in place below its
// read offset, and reports ErrCursorRebound so the caller can re-derive its
// position and open a fresh cursor.

// ErrNoFrame reports that no complete frame exists at the cursor's offset
// yet: the tail is either clean end-of-log or a partial in-flight frame.
// Poll again after the writer commits.
var ErrNoFrame = errors.New("mutate: no complete frame at the log tail yet")

// ErrCursorRebound reports that the log file was replaced or truncated under
// the cursor (a checkpoint's prefix truncation): the cursor's frame
// indexing no longer describes the file at its path. Re-derive the position
// and open a new cursor.
var ErrCursorRebound = errors.New("mutate: log truncated or replaced under cursor")

// maxFrameBytes bounds a single frame a cursor will accept. The writer's
// batches are bounded by the serving layer's request caps well below this;
// a length prefix beyond it is treated as torn bytes, not a frame.
const maxFrameBytes = 1 << 30

// Cursor reads batch frames from a WAL file, tolerating a writer appending
// to it concurrently. Not safe for concurrent use by multiple goroutines.
type Cursor struct {
	path string
	f    *os.File
	fp   uint32 // binding fingerprint from the header frame
	off  int64  // offset of the next unread frame
	buf  []byte // reusable read buffer
}

// OpenCursor opens a replication cursor over the log at path, positioned at
// the first batch frame (just past the header). The header frame must be
// complete — OpenWAL writes it before the log is ever published.
func OpenCursor(path string) (*Cursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c := &Cursor{path: path, f: f}
	hdr, err := c.frameAt(0)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("mutate: cursor %s: unreadable header frame: %w", path, err)
	}
	want := headerPayload(0)
	if len(hdr) != len(want) || string(hdr[:5]) != string(want[:5]) {
		f.Close()
		return nil, fmt.Errorf("mutate: cursor %s: not a v%d WAL header", path, walVersion)
	}
	c.fp = binary.LittleEndian.Uint32(hdr[5:])
	c.off = frameLen(hdr)
	return c, nil
}

// BaseFingerprint returns the snapshot fingerprint the log's header bound it
// to when the cursor was opened.
func (c *Cursor) BaseFingerprint() uint32 { return c.fp }

// Next returns the payload of the next complete batch frame. It returns
// ErrNoFrame when the tail holds no complete frame yet (poll again after the
// next commit), and ErrCursorRebound when the file was truncated or replaced
// under the cursor. The returned slice is owned by the caller.
func (c *Cursor) Next() ([]byte, error) {
	payload, err := c.frameAt(c.off)
	if err != nil {
		if errors.Is(err, ErrNoFrame) && c.rebound() {
			return nil, ErrCursorRebound
		}
		return nil, err
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	c.off += frameLen(payload)
	return out, nil
}

// Skip advances the cursor past n batch frames without returning them — the
// positioning step after a follower reports how far it already applied. The
// skipped frames must be complete; a tail or rebind inside the skip is
// reported as Next would.
func (c *Cursor) Skip(n int) error {
	for i := 0; i < n; i++ {
		payload, err := c.frameAt(c.off)
		if err != nil {
			if errors.Is(err, ErrNoFrame) && c.rebound() {
				return ErrCursorRebound
			}
			return err
		}
		c.off += frameLen(payload)
	}
	return nil
}

// frameLen is the on-disk size of a frame carrying payload.
func frameLen(payload []byte) int64 {
	var lenBuf [binary.MaxVarintLen64]byte
	used := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	return int64(used) + 4 + int64(len(payload))
}

// frameAt reads and validates the frame starting at off. The returned slice
// aliases the cursor's internal buffer. Incomplete or CRC-failing bytes —
// a clean end of log, the writer's in-flight append, or a torn tail — all
// come back as ErrNoFrame: none of them is a committed frame.
func (c *Cursor) frameAt(off int64) ([]byte, error) {
	var hdr [binary.MaxVarintLen64 + 4]byte
	n, err := c.f.ReadAt(hdr[:], off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	r := bytes.NewReader(hdr[:n])
	plen, sum, err := readFrameHead(r, maxFrameBytes)
	if err != nil {
		// The header is not fully present, or its length is torn bytes
		// rather than a plausible frame.
		return nil, ErrNoFrame
	}
	if cap(c.buf) < int(plen) {
		c.buf = make([]byte, plen)
	}
	payload := c.buf[:plen]
	if _, err := c.f.ReadAt(payload, off+int64(n-r.Len())); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrNoFrame // payload not fully written yet
		}
		return nil, err
	}
	if !intact(payload, sum) {
		return nil, ErrNoFrame // partial write still in flight, or torn tail
	}
	return payload, nil
}

// rebound reports whether the file at the cursor's path is no longer the one
// (or the prefix) the cursor has been reading: a rename swapped the inode
// (TruncatePrefix), or an in-place truncation shrank it below the cursor's
// offset. Called only when no complete frame is available, so a
// false negative just means one more poll.
func (c *Cursor) rebound() bool {
	cur, err := c.f.Stat()
	if err != nil {
		return true
	}
	disk, err := os.Stat(c.path)
	if err != nil {
		return true // unlinked with no replacement yet: certainly rebound
	}
	if !os.SameFile(cur, disk) {
		return true
	}
	return disk.Size() < c.off
}

// Close releases the cursor's file handle.
func (c *Cursor) Close() error { return c.f.Close() }

// WriteFrameTo writes payload to w in the WAL frame encoding — the wire
// format replication streams reuse, so a follower's frame reader and the
// log's own scanner agree byte for byte.
func WriteFrameTo(w io.Writer, payload []byte) error {
	_, err := w.Write(appendFrame(nil, payload))
	return err
}

// ReadFrameFrom reads one frame from r (a replication stream), validating
// its CRC. io.EOF means a clean end of stream before any frame byte;
// any mid-frame truncation is io.ErrUnexpectedEOF. Memory follows the
// bytes that arrive, not the length the header declares.
func ReadFrameFrom(r *bufio.Reader) ([]byte, error) {
	n, sum, err := readFrameHead(r, maxFrameBytes)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("mutate: stream frame header: %w", err)
	}
	payload, err := readPayload(r, n)
	if err != nil {
		return nil, fmt.Errorf("mutate: stream frame payload: %w", noEOF(err))
	}
	if !intact(payload, sum) {
		return nil, fmt.Errorf("mutate: stream frame fails CRC")
	}
	return payload, nil
}

// readPayload reads an n-byte payload. Up to 64 KiB it allocates once, at
// the exact size; beyond that the buffer at most doubles per step, and only
// after the bytes before it arrived, so a length prefix the stream does
// not back up costs little.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, min(n, 64<<10))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for uint64(len(buf)) < n {
		more := int(min(n-uint64(len(buf)), uint64(len(buf))))
		buf = slices.Grow(buf, more)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+more]); err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+more]
	}
	return buf, nil
}

// noEOF maps io.EOF to io.ErrUnexpectedEOF: inside a frame, a stream end is
// always a truncation, and callers must not mistake it for a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Path returns the file path the log was opened at — what a replication
// cursor over this log must be pointed at.
func (w *WAL) Path() string { return w.path }
