package mutate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/ssd"
	"repro/internal/storage"
)

// WAL is an append-only write-ahead log of mutation batches, bound to one
// base snapshot. The first frame is a header naming the snapshot the log
// extends (magic, format version, crc32 of the snapshot's storage
// encoding); every further frame is one batch:
//
//	payloadLen uvarint | crc32(payload) u32 LE | payload
//
// Open scans existing frames and truncates a torn tail (a partial final
// frame from a crashed writer), so replay is exactly the committed prefix.
// A log whose header names a different snapshot is an error: its batches
// were built against a base the caller does not hold, so replaying them
// would corrupt rather than recover, and dropping them would lose
// acknowledged commits. Append syncs after every frame: once Append
// returns, the batch survives a crash.
type WAL struct {
	path string
	f    *os.File
	fp   uint32 // fingerprint the header currently binds the log to
	// end is the offset past the last valid frame. Only the (caller-
	// serialized) write path moves it, but it is atomic so Size can be
	// read lock-free by monitoring endpoints while a truncation holds the
	// writer lock.
	end      atomic.Int64
	pending  [][]byte // batch payloads read at Open, consumed by Replay
	batches  int      // batch frames appended + replayable
	replayed bool
	// broken latches the error of a truncation that failed after its point
	// of no return (the on-disk log no longer matches this handle's state).
	// Every subsequent write refuses with it: acking a commit that the
	// on-disk log does not hold would be silent data loss.
	broken error
}

const (
	walMagic   = "SSDW"
	walVersion = 1
)

// Fingerprint identifies a snapshot for WAL binding: the checksum of its
// storage encoding.
func Fingerprint(g *ssd.Graph) uint32 { return crc32.ChecksumIEEE(storage.Encode(g)) }

func headerPayload(fp uint32) []byte {
	buf := append([]byte(walMagic), walVersion)
	return binary.LittleEndian.AppendUint32(buf, fp)
}

// OpenWAL opens (creating if necessary) the log at path, binding it to the
// base snapshot with the given fingerprint (Fingerprint of the graph the
// log's batches extend). A log bound to a different snapshot is an error.
// Call Replay to apply the logged batches, then Append to extend the log.
func OpenWAL(path string, fp uint32) (*WAL, error) {
	w, _, err := OpenWALMatching(path, fp)
	return w, err
}

// OpenWALMatching opens the log at path accepting any of the given binding
// fingerprints, and reports which one the header carried. A log bound to no
// accepted fingerprint means commits the caller cannot account for, so it
// is an error, never silently restarted. A missing or empty log — or one
// whose header frame was torn mid-write, which no acknowledged batch can
// follow — is (re)started bound to fps[0].
func OpenWALMatching(path string, fps ...uint32) (*WAL, uint32, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	frames, end := scanFrames(data)
	matched, headerOK := fps[0], false
	if len(frames) > 0 {
		for _, fp := range fps {
			if string(frames[0]) == string(headerPayload(fp)) {
				matched, headerOK = fp, true
				break
			}
		}
	}
	w := &WAL{path: path, f: f, fp: matched}
	if !headerOK {
		// A complete frame, or as many bytes as a header frame, that is not
		// an accepted header: a log bound elsewhere, or a corrupt one.
		if len(frames) > 0 || len(data) >= len(appendFrame(nil, headerPayload(0))) {
			f.Close()
			return nil, 0, fmt.Errorf("mutate: WAL %s is bound to an unknown snapshot", path)
		}
		// Fresh log, or a header torn before its sync: write the header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, 0, err
		}
		if err := w.writeFrame(headerPayload(matched)); err != nil {
			f.Close()
			return nil, 0, err
		}
		return w, matched, nil
	}
	w.pending = frames[1:]
	w.batches = len(w.pending)
	w.end.Store(end)
	obsWALBytes.Set(end)
	if int64(len(data)) > end {
		// Drop the torn tail now so appends start at a clean boundary.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	if _, err := f.Seek(end, 0); err != nil {
		f.Close()
		return nil, 0, err
	}
	return w, matched, nil
}

// scanFrames parses the valid frame prefix of data, returning the frame
// payloads and the offset just past the last valid frame.
func scanFrames(data []byte) ([][]byte, int64) {
	var frames [][]byte
	var end int64
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		// A length beyond what data holds is a torn or corrupt tail.
		n, sum, err := readFrameHead(r, uint64(r.Len()))
		if err != nil || n > uint64(r.Len()) {
			break
		}
		at := len(data) - r.Len()
		payload := data[at : at+int(n)]
		if !intact(payload, sum) {
			break // corrupt tail
		}
		r.Seek(int64(n), io.SeekCurrent)
		frames = append(frames, payload)
		end = int64(at) + int64(n)
	}
	return frames, end
}

// Batches returns the number of valid batches in the log (replayable plus
// appended).
func (w *WAL) Batches() int { return w.batches }

// Size returns the log size in bytes up to the last valid frame — the
// figure checkpoint size-threshold triggers and monitoring endpoints
// watch. Safe to call without the writer lock.
func (w *WAL) Size() int64 { return w.end.Load() }

// BaseFingerprint returns the snapshot fingerprint the log header currently
// binds the log to.
func (w *WAL) BaseFingerprint() uint32 { return w.fp }

// Replay decodes the batches found at Open, in order, and hands each to
// apply. It may be called once; the frame payloads are released afterwards.
func (w *WAL) Replay(apply func(*Batch) error) error {
	if w.replayed {
		return fmt.Errorf("mutate: WAL %s already replayed", w.path)
	}
	w.replayed = true
	for i, payload := range w.pending {
		b, err := DecodeBatch(payload)
		if err != nil {
			return fmt.Errorf("mutate: WAL %s batch %d: %w", w.path, i, err)
		}
		if err := apply(b); err != nil {
			return fmt.Errorf("mutate: WAL %s batch %d: %w", w.path, i, err)
		}
	}
	w.pending = nil
	return nil
}

// Append writes one batch as a new frame and syncs the file. It must run
// under the writer lock that serializes commits: frames are appended to a
// shared file offset, and two interleaved Appends would tear the log.
//
//ssd:requires writeMu
func (w *WAL) Append(b *Batch) error {
	if err := w.writeFrame(EncodeBatch(b)); err != nil {
		return err
	}
	w.batches++
	return nil
}

func (w *WAL) writeFrame(payload []byte) error {
	if w.broken != nil {
		return w.broken
	}
	start := time.Now()
	frame := appendFrame(nil, payload)
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	syncStart := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	obsWALFsyncDur.Observe(time.Since(syncStart))
	obsWALBytes.Set(w.end.Add(int64(len(frame))))
	obsWALAppendDur.Observe(time.Since(start))
	obsWALAppends.Inc()
	return nil
}

// appendFrame appends one length+CRC framed payload to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// readFrameHead reads a frame header, payloadLen uvarint | crc32 u32 LE,
// from r. A payload length beyond limit is an error. err is io.EOF only
// when r held no byte at all; a header cut short is io.ErrUnexpectedEOF.
// The log scanner, the replication cursor and the stream reader all read
// frames through it and check them with intact; each maps a failure to
// its own outcome.
func readFrameHead(r io.ByteReader, limit uint64) (n uint64, sum uint32, err error) {
	if n, err = readUvarint(r); err != nil {
		return 0, 0, err
	}
	if n > limit {
		return 0, 0, fmt.Errorf("mutate: frame of %d bytes exceeds limit %d", n, limit)
	}
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, 0, noEOF(err)
		}
		sum |= uint32(b) << (8 * i)
	}
	return n, sum, nil
}

// readUvarint is binary.ReadUvarint that also refuses a value spelled in
// more bytes than it needs: appendFrame writes lengths minimally, and a
// longer spelling would give one payload many frame encodings.
func readUvarint(r io.ByteReader) (uint64, error) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 {
				return 0, noEOF(err)
			}
			return 0, err
		}
		if b < 0x80 {
			if i > 0 && b == 0 {
				return 0, fmt.Errorf("mutate: frame length of %d bytes is not minimally encoded", i+1)
			}
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return v | uint64(b)<<(7*i), nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, fmt.Errorf("mutate: frame length overflows 64 bits")
}

// intact reports whether payload matches its frame header's checksum.
func intact(payload []byte, sum uint32) bool { return crc32.ChecksumIEEE(payload) == sum }

// TruncatePrefix removes the log's first k batch frames — those a durable
// snapshot has folded in — and rebinds the header to newFP, the
// fingerprint of that snapshot. It is the checkpoint side of log
// truncation: after it returns, the log holds exactly the batches past the
// checkpoint, bound to the checkpointed state. The rewrite goes through a
// temp file and an atomic rename, so a crash leaves either the old log
// (replayable against the previous binding) or the new one — never a torn
// log.
//
// The caller must hold the writer lock that serializes Append: a commit
// interleaving with the rewrite would be lost. internal/core enforces this
// by truncating under the same lock its commits take.
//
//ssd:requires writeMu
func (w *WAL) TruncatePrefix(k int, newFP uint32) error {
	if w.broken != nil {
		return w.broken
	}
	if k < 0 || k > w.batches {
		return fmt.Errorf("mutate: truncate %d of %d batches", k, w.batches)
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		return err
	}
	frames, _ := scanFrames(data)
	if len(frames) != w.batches+1 {
		return fmt.Errorf("mutate: WAL %s has %d frames on disk, expected %d",
			w.path, len(frames), w.batches+1)
	}
	buf := appendFrame(nil, headerPayload(newFP))
	for _, p := range frames[1+k:] {
		buf = appendFrame(buf, p)
	}
	// Write the replacement through a handle we keep: after the rename the
	// same handle refers to the live log, so there is no reopen that could
	// fail and leave the WAL appending to an unlinked inode. That is why this
	// is a copy of storage.WriteFileAtomic's protocol rather than a call to
	// it: the helper closes its file before the rename.
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, w.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Point of no return: the truncated log is in place. A failure past
	// here must poison the handle — acking commits the on-disk log will
	// not replay would be silent data loss.
	if err := syncDir(w.path); err != nil {
		w.broken = fmt.Errorf("mutate: WAL %s truncated but directory sync failed: %w", w.path, err)
		f.Close()
		return w.broken
	}
	w.f.Close()
	w.f = f
	w.end.Store(int64(len(buf)))
	obsWALBytes.Set(int64(len(buf)))
	w.batches -= k
	w.fp = newFP
	if !w.replayed && len(w.pending) >= k {
		// The open-time replay list shrinks with the log: the dropped prefix
		// is already part of the snapshot the caller recovered from.
		w.pending = w.pending[k:]
	}
	return nil
}

// Close releases the log's file handle.
func (w *WAL) Close() error { return w.f.Close() }

func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	// Directory fsync is advisory on some platforms; ignore failure the way
	// os.File.Sync callers conventionally do for directories.
	d.Sync()
	return nil
}
