package mutate

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ssd"
)

// cursorTestLog writes a WAL with n chain-batches and returns the log path,
// the open WAL, and each batch's encoded payload in append order.
func cursorTestLog(t *testing.T, dir string, n int) (string, *WAL, [][]byte) {
	t.Helper()
	g := fig1Fragment()
	logPath := filepath.Join(dir, "wal")
	w, err := OpenWAL(logPath, Fingerprint(fig1Fragment()))
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for i := 0; i < n; i++ {
		b := NewBatch(g)
		prev := g.Root()
		for j := 0; j <= i%3; j++ { // vary batch sizes
			nn := b.AddNode()
			if err := b.AddEdge(prev, ssd.Sym("chain"), nn); err != nil {
				t.Fatal(err)
			}
			prev = nn
		}
		if _, err := ApplyInPlace(g, b); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, EncodeBatch(b))
	}
	return logPath, w, payloads
}

// TestCursorReadsCommittedFrames drains a finished log and then hits
// ErrNoFrame at the clean tail.
func TestCursorReadsCommittedFrames(t *testing.T) {
	path, w, payloads := cursorTestLog(t, t.TempDir(), 5)
	defer w.Close()
	c, err := OpenCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.BaseFingerprint() != w.BaseFingerprint() {
		t.Fatalf("cursor fp %#x, WAL fp %#x", c.BaseFingerprint(), w.BaseFingerprint())
	}
	for i, want := range payloads {
		got, err := c.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload differs from appended batch", i)
		}
	}
	if _, err := c.Next(); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("at clean tail: err = %v, want ErrNoFrame", err)
	}
}

// TestCursorSkipPositions skips k frames and resumes exactly at frame k.
func TestCursorSkipPositions(t *testing.T) {
	path, w, payloads := cursorTestLog(t, t.TempDir(), 6)
	defer w.Close()
	for k := 0; k <= len(payloads); k++ {
		c, err := OpenCursor(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Skip(k); err != nil {
			t.Fatalf("skip %d: %v", k, err)
		}
		got, err := c.Next()
		if k == len(payloads) {
			if !errors.Is(err, ErrNoFrame) {
				t.Fatalf("skip-all: err = %v, want ErrNoFrame", err)
			}
		} else if err != nil || !bytes.Equal(got, payloads[k]) {
			t.Fatalf("after skip %d: err=%v, payload match=%v", k, err, bytes.Equal(got, payloads[k]))
		}
		c.Close()
	}
}

// TestCursorNeverObservesTornTail is the replication-safety regression test:
// for every cut position that tears the final frame — inside the length
// varint, inside the CRC word, one byte short of complete — a cursor over
// the torn file yields exactly the complete frames and then ErrNoFrame. A
// torn frame must be indistinguishable from "not yet written": surfacing it
// would replicate an uncommitted batch. Appending the missing bytes (the
// writer finishing its in-flight write) must then surface the frame.
func TestCursorNeverObservesTornTail(t *testing.T) {
	dir := t.TempDir()
	path, w, payloads := cursorTestLog(t, dir, 3)
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, data)

	check := func(name string, cut, wantFrames int) {
		t.Helper()
		torn := filepath.Join(dir, "torn-"+name)
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCursor(torn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer c.Close()
		for i := 0; i < wantFrames; i++ {
			got, err := c.Next()
			if err != nil {
				t.Fatalf("%s: complete frame %d: %v", name, i, err)
			}
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("%s: frame %d payload differs", name, i)
			}
		}
		// The torn remainder must read as "no frame yet", repeatedly.
		for i := 0; i < 2; i++ {
			if _, err := c.Next(); !errors.Is(err, ErrNoFrame) {
				t.Fatalf("%s: torn tail surfaced as %v, want ErrNoFrame", name, err)
			}
		}
		// Writer completes the frame: the cursor now sees it without reopening.
		if err := os.WriteFile(torn, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if wantFrames < len(payloads) {
			got, err := c.Next()
			if err != nil || !bytes.Equal(got, payloads[wantFrames]) {
				t.Fatalf("%s: completed frame: err=%v", name, err)
			}
		}
	}

	// ends[0] is the header end; batch frame i spans ends[i]..ends[i+1].
	for i := 0; i < len(ends)-1; i++ {
		used, _ := uvarintLen(data[ends[i]:])
		check(fmt.Sprintf("varint-split-%d", i), ends[i]+1, i)
		check(fmt.Sprintf("crc-split-%d", i), ends[i]+used+2, i)
		check(fmt.Sprintf("payload-split-%d", i), ends[i+1]-1, i)
	}
}

// TestCursorConcurrentWriter races a cursor tailing the log against the
// writer appending to it: the reader must see every batch, in order, byte
// for byte, and must never surface an error other than ErrNoFrame. Run
// under -race this also checks the no-shared-state claim of the design (the
// cursor reads through its own fd; the only coupling is the file).
func TestCursorConcurrentWriter(t *testing.T) {
	dir := t.TempDir()
	g := fig1Fragment()
	path := filepath.Join(dir, "wal")
	w, err := OpenWAL(path, Fingerprint(fig1Fragment()))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const batches = 40
	var (
		mu       sync.Mutex
		appended [][]byte
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			b := NewBatch(g)
			n := b.AddNode()
			if err := b.AddEdge(g.Root(), ssd.Sym("r"), n); err != nil {
				t.Error(err)
				return
			}
			enc := EncodeBatch(b)
			mu.Lock()
			// Under the same ordering a real commit has: the payload is
			// recorded before Append makes it visible to the reader.
			appended = append(appended, enc)
			if _, err := ApplyInPlace(g, b); err != nil {
				mu.Unlock()
				t.Error(err)
				return
			}
			if err := w.Append(b); err != nil {
				mu.Unlock()
				t.Error(err)
				return
			}
			mu.Unlock()
		}
	}()

	c, err := OpenCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	read := 0
	for read < batches {
		frame, err := c.Next()
		if errors.Is(err, ErrNoFrame) {
			continue // writer hasn't committed the next batch yet
		}
		if err != nil {
			t.Fatalf("frame %d: %v", read, err)
		}
		mu.Lock()
		if read >= len(appended) {
			mu.Unlock()
			t.Fatalf("cursor read frame %d before the writer recorded it", read)
		}
		ok := bytes.Equal(frame, appended[read])
		mu.Unlock()
		if !ok {
			t.Fatalf("frame %d differs from the appended batch", read)
		}
		read++
	}
	<-done
	if _, err := c.Next(); !errors.Is(err, ErrNoFrame) {
		t.Fatalf("after all batches: err = %v, want ErrNoFrame", err)
	}
}

// TestCursorReboundOnTruncatePrefix: a checkpoint's prefix truncation swaps
// the log file by rename; a cursor parked at the old tail must report
// ErrCursorRebound, not silently misread the new file through stale offsets.
func TestCursorReboundOnTruncatePrefix(t *testing.T) {
	path, w, payloads := cursorTestLog(t, t.TempDir(), 4)
	defer w.Close()
	c, err := OpenCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for range payloads {
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.TruncatePrefix(3, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); !errors.Is(err, ErrCursorRebound) {
		t.Fatalf("after TruncatePrefix: err = %v, want ErrCursorRebound", err)
	}
	// A fresh cursor over the truncated log sees the surviving suffix.
	c2, err := OpenCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err := c2.Next()
	if err != nil || !bytes.Equal(got, payloads[3]) {
		t.Fatalf("fresh cursor after truncation: err=%v", err)
	}
}

// TestCursorReboundOnCompact: a log shrunk in place (same inode) below the
// cursor's offset must be caught by the size check even though the inode
// is unchanged: no writer path shrinks a live log in place, but the cursor
// must never misread a shorter file through stale offsets.
func TestCursorReboundOnCompact(t *testing.T) {
	path, w, payloads := cursorTestLog(t, t.TempDir(), 3)
	defer w.Close()
	c, err := OpenCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for range payloads {
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, int64(len(appendFrame(nil, headerPayload(0))))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); !errors.Is(err, ErrCursorRebound) {
		t.Fatalf("after an in-place shrink: err = %v, want ErrCursorRebound", err)
	}
}

// TestStreamFrameRoundTrip pins the wire framing replication streams use:
// WriteFrameTo/ReadFrameFrom round-trip payloads, a clean end is io.EOF,
// and any mid-frame truncation is an error — never a short frame.
func TestStreamFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{7}, 300)}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrameTo(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	wire := buf.Bytes()
	r := bufio.NewReader(bytes.NewReader(wire))
	for i, want := range payloads {
		got, err := ReadFrameFrom(r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: err=%v", i, err)
		}
	}
	if _, err := ReadFrameFrom(r); err != io.EOF {
		t.Fatalf("clean end: err = %v, want io.EOF", err)
	}
	for cut := 1; cut < len(wire); cut++ {
		r := bufio.NewReader(bytes.NewReader(wire[:cut]))
		var err error
		for err == nil {
			_, err = ReadFrameFrom(r)
		}
		if err == io.EOF {
			// io.EOF is only legal exactly at a frame boundary.
			atBoundary := false
			pos := 0
			for _, p := range payloads {
				pos += len(appendFrame(nil, p))
				if cut == pos {
					atBoundary = true
				}
			}
			if !atBoundary {
				t.Fatalf("cut %d: truncation inside a frame read as clean EOF", cut)
			}
		}
	}
}

// TestReadFrameFromAllocatesAsBytesArrive: a stream's length prefix is not
// trusted with memory. Ten bytes declaring a 1 GiB payload (length, CRC,
// one payload byte) fail as a truncation after allocating well under
// 1 MiB, while a whole frame of up to 64 KiB is allocated once, at its
// exact size.
func TestReadFrameFromAllocatesAsBytesArrive(t *testing.T) {
	wire := binary.AppendUvarint(nil, 1<<30)
	wire = append(wire, 0, 0, 0, 0, 42)
	if len(wire) != 10 {
		t.Fatalf("stream is %d bytes, want 10", len(wire))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrameFrom(bufio.NewReader(bytes.NewReader(wire)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 10-byte stream allocated %d bytes", grew)
	}

	var buf bytes.Buffer
	if err := WriteFrameTo(&buf, bytes.Repeat([]byte{7}, 64<<10)); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(buf.Bytes())
	r := bufio.NewReader(src)
	allocs := testing.AllocsPerRun(10, func() {
		src.Reset(buf.Bytes())
		r.Reset(src)
		payload, err := ReadFrameFrom(r)
		if err != nil || len(payload) != 64<<10 || cap(payload) != len(payload) {
			t.Fatalf("64 KiB frame: %d bytes (cap %d), err %v", len(payload), cap(payload), err)
		}
	})
	if allocs != 1 {
		t.Fatalf("64 KiB frame: %v allocations, want 1", allocs)
	}
}

// TestNonMinimalFrameLengthRejected: 80 00 spells the length 0 in two bytes.
// Every frame reader refuses it — the log scanner stops before it, a
// cursor sees no frame, a stream reader reports an error — so each payload
// has exactly one frame encoding.
func TestNonMinimalFrameLengthRejected(t *testing.T) {
	frame := []byte{0x80, 0x00, 0x00, 0x00, 0x00, 0x00} // length 0, CRC of no bytes
	if frames, end := scanFrames(frame); len(frames) != 0 || end != 0 {
		t.Errorf("scanFrames: %d frames ending at %d, want none", len(frames), end)
	}

	path := filepath.Join(t.TempDir(), "wal")
	log := append(appendFrame(nil, headerPayload(7)), frame...)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, err := c.Next(); !errors.Is(err, ErrNoFrame) {
		t.Errorf("cursor: payload % x, err %v, want ErrNoFrame", got, err)
	}

	if got, err := ReadFrameFrom(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Errorf("ReadFrameFrom accepted the frame as payload % x", got)
	}
}

// TestDecodeBatchRejectsBoolByte: one AddEdge record from node 0 to node 0
// whose bool label byte is 02, a second spelling of true next to 01.
func TestDecodeBatchRejectsBoolByte(t *testing.T) {
	batch := func(b byte) []byte {
		return []byte{1, 1, byte(OpAddEdge), 0, byte(ssd.KindBool), b, 0}
	}
	if _, err := DecodeBatch(batch(1)); err != nil {
		t.Fatalf("DecodeBatch refused bool byte 01: %v", err)
	}
	if b, err := DecodeBatch(batch(2)); err == nil {
		t.Fatalf("DecodeBatch accepted bool byte 02 as %s", b.Recs()[0].Label)
	}
}

// TestDecodeBatchRejectsWideNodeID: a SetRoot record naming node 2^32,
// which an int32 node id would wrap onto node 0.
func TestDecodeBatchRejectsWideNodeID(t *testing.T) {
	batch := func(node uint64) []byte {
		return binary.AppendUvarint([]byte{1, 1, byte(OpSetRoot)}, node)
	}
	if _, err := DecodeBatch(batch(math.MaxInt32)); err != nil {
		t.Fatalf("DecodeBatch refused node id 2^31-1: %v", err)
	}
	if b, err := DecodeBatch(batch(1 << 32)); err == nil {
		t.Fatalf("DecodeBatch accepted node id 2^32 as %d", b.Recs()[0].From)
	}
}

// TestDecodeBatchRejectsNonMinimalVarint: 80 00 spells baseNodes = 0 in two
// bytes, followed by a record count of 0.
func TestDecodeBatchRejectsNonMinimalVarint(t *testing.T) {
	if b, err := DecodeBatch([]byte{0x80, 0x00, 0x00}); err == nil {
		t.Fatalf("DecodeBatch accepted a two-byte zero: %d records against %d base nodes", b.Len(), b.BaseNodes())
	}
	if _, err := DecodeBatch([]byte{0x00, 0x00}); err != nil {
		t.Fatalf("DecodeBatch refused the minimal empty batch: %v", err)
	}
}
