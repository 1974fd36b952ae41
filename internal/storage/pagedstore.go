package storage

// The real out-of-core page store: the promotion of this package's old
// Touch()-counter simulation into an actual on-disk layout served through
// an actual buffer pool. A page file derives from the same record wire
// format as the snapshot codec's graph section (ssd.AppendLabel and uvarints),
// re-packed into fixed-size pages in DFS cluster order so parent and child
// records usually share a page — §4's clustering argument, now load-bearing
// instead of simulated.
//
// File layout:
//
//	header (24 bytes): magic "SSDP" | version u8 | clustering u8 |
//	    reserved u16 | pageSize u32 | numPages u32 | numNodes u32 | root u32
//	directory: numNodes × u32 — the first page of the run holding each
//	    node's record
//	crc u32 (IEEE) over header+directory
//	pages: numPages × pageSize bytes
//
// Records are packed into runs: a run is one page, or — for a record
// larger than a page — a contiguous span of pages treated as one frame.
// Each run starts with a 12-byte header (dataLen u32 | nrec u16 |
// reserved u16 | crc u32 over the record data) followed by nrec records:
//
//	node uvarint | degree uvarint | per edge: label (ssd.AppendLabel) + to uvarint
//
// Runs are laid out in clustering order, so a DFS scan reads the file
// near-sequentially. The directory maps every node to its run's first
// page; continuation pages are never entered directly.
//
// The buffer pool caches runs ("frames") under a byte budget with LRU
// eviction over unpinned frames. Frames are lazy: loading a run checks its
// CRC and validates every record once (node and edge targets in range, no
// node twice, degrees and labels well formed) while recording where each
// record starts, but decodes nothing. A record's edges are decoded on first touch and
// published into the frame for later readers; a leaf decodes to nil.
// Decoded edge slices are ordinary garbage-collected memory that never
// aliases the run bytes, so a slice that escaped a frame stays valid after
// the frame is evicted. Eviction hands a single-page frame's buffers to a
// small free list that the next miss reuses; that is safe because only
// unpinned frames are evicted and every decode runs on a pinned frame.
// Iterator hot paths pin a small ring of frames through a StoreAccessor
// (see Accessor) and release them when the cursor closes.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/ssd"
)

const (
	pageMagic   = "SSDP"
	pageVersion = 1
	fileHdrLen  = 24
	pageHdrLen  = 12

	// DefaultPageSize is the page size WritePageFile uses when given 0.
	DefaultPageSize = 4096
	// MinPageSize bounds configurability from below: a page must hold its
	// own header plus at least a little data.
	MinPageSize = 64
	// DefaultPoolBytes is the buffer-pool budget OpenPageFile applies when
	// given a non-positive one.
	DefaultPoolBytes = 64 << 20
)

// Pool counters are process-global (the obs idiom); per-store resident and
// pinned gauges are summed over the live-store registry at snapshot time.
var (
	poolHits      = obs.Default.Counter("ssd_pagepool_hits_total", "Buffer pool frame hits.")
	poolMisses    = obs.Default.Counter("ssd_pagepool_misses_total", "Buffer pool frame misses (page reads).")
	poolEvictions = obs.Default.Counter("ssd_pagepool_evictions_total", "Buffer pool frames evicted under the byte budget.")

	liveMu     sync.Mutex
	liveStores = make(map[*PageStore]struct{})

	_ = func() bool {
		obs.Default.GaugeFunc("ssd_pagepool_resident_bytes",
			"Bytes of page frames resident across open page stores.", func() int64 {
				liveMu.Lock()
				defer liveMu.Unlock()
				var total int64
				for ps := range liveStores {
					total += ps.Stats().ResidentBytes
				}
				return total
			})
		obs.Default.GaugeFunc("ssd_pagepool_pinned_pages",
			"Pages currently pinned across open page stores.", func() int64 {
				liveMu.Lock()
				defer liveMu.Unlock()
				var total int64
				for ps := range liveStores {
					total += ps.Stats().PinnedPages
				}
				return total
			})
		return true
	}()
)

// PoolStats is a point-in-time view of one store's buffer pool.
type PoolStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	ResidentBytes int64
	PinnedPages   int64
}

// WritePageFile lays g out as a page file at path: records in clustering
// order c, pages of pageSize bytes (0 means DefaultPageSize). The write is
// atomic (WriteFileAtomic), so a crash leaves either the old complete file
// or none — the torn-write recovery story is "rebuild from the snapshot",
// not page-level repair.
func WritePageFile(path string, g *ssd.Graph, c Clustering, pageSize int) error {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < MinPageSize {
		return fmt.Errorf("storage: page size %d below minimum %d", pageSize, MinPageSize)
	}
	n := g.NumNodes()
	if n == 0 {
		return fmt.Errorf("storage: page file requires at least one node")
	}
	order := layoutOrder(g, c, 1)
	dir := make([]uint32, n)
	var pages []byte
	var curData []byte
	var curNodes []ssd.NodeID

	flush := func() {
		if len(curNodes) == 0 {
			return
		}
		first := uint32(len(pages) / pageSize)
		var hdr [pageHdrLen]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(curData)))
		binary.LittleEndian.PutUint16(hdr[4:], uint16(len(curNodes)))
		binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(curData))
		pages = append(pages, hdr[:]...)
		pages = append(pages, curData...)
		if pad := len(pages) % pageSize; pad != 0 {
			pages = append(pages, make([]byte, pageSize-pad)...)
		}
		for _, v := range curNodes {
			dir[v] = first
		}
		curData, curNodes = curData[:0], curNodes[:0]
	}

	for _, v := range order {
		rec := appendNodeRecord(nil, g, v)
		// A record that will not fit the current page starts a fresh run;
		// a record larger than a page gets a multi-page run of its own.
		if len(curNodes) > 0 && pageHdrLen+len(curData)+len(rec) > pageSize {
			flush()
		}
		// nrec is a u16; an absurdly dense page of tiny records must split.
		if len(curNodes) == 1<<16-1 {
			flush()
		}
		curData = append(curData, rec...)
		curNodes = append(curNodes, v)
		if pageHdrLen+len(curData) >= pageSize {
			flush()
		}
	}
	flush()

	numPages := len(pages) / pageSize
	head := make([]byte, 0, fileHdrLen+4*n+4)
	head = append(head, pageMagic...)
	head = append(head, pageVersion, byte(c), 0, 0)
	head = binary.LittleEndian.AppendUint32(head, uint32(pageSize))
	head = binary.LittleEndian.AppendUint32(head, uint32(numPages))
	head = binary.LittleEndian.AppendUint32(head, uint32(n))
	head = binary.LittleEndian.AppendUint32(head, uint32(g.Root()))
	for _, p := range dir {
		head = binary.LittleEndian.AppendUint32(head, p)
	}
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head))
	_, err := WriteFileAtomic(path, head, pages)
	return err
}

// appendNodeRecord encodes one node's adjacency record — the snapshot
// codec's per-node wire format prefixed with the node id, since pages are
// not in id order.
func appendNodeRecord(buf []byte, g *ssd.Graph, n ssd.NodeID) []byte {
	buf = binary.AppendUvarint(buf, uint64(n))
	es := g.Out(n)
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = ssd.AppendLabel(buf, e.Label)
		buf = binary.AppendUvarint(buf, uint64(e.To))
	}
	return buf
}

// frameRec locates one validated record in its frame's data.
type frameRec struct {
	node ssd.NodeID
	deg  uint32 // edge count
	off  uint32 // offset of the record's first edge in data
}

// recReady marks a record whose decoded edges are published in
// frame.edges; recClaimed marks one a reader is publishing.
const (
	recClaimed uint32 = 1 + iota
	recReady
)

// frame is one run resident in the pool: its validated record bytes and a
// table of where each record starts, decoded per record on first touch.
type frame struct {
	page  uint32     // first page of the run
	bytes int64      // page bytes charged against the budget
	buf   []byte     // the run as read, header included
	data  []byte     // the run's record data, inside buf
	recs  []frameRec // sorted by node, no node twice
	// Per record, parallel to recs: its publish state and, once recReady,
	// its decoded edges.
	state []atomic.Uint32
	edges [][]ssd.Edge
	pins  int
	// LRU links; a frame is listed only while unpinned.
	prev, next *frame
}

// find returns the index in recs of n's record, or -1.
func (fr *frame) find(n ssd.NodeID) int {
	recs := fr.recs
	if len(recs) == 0 {
		return -1
	}
	// Clustered runs mostly hold consecutive ids: try n's offset from the
	// first id before searching.
	if k := int(n - recs[0].node); k >= 0 && k < len(recs) && recs[k].node == n {
		return k
	}
	if i, ok := slices.BinarySearchFunc(recs, n, cmpNode); ok {
		return i
	}
	return -1
}

func cmpNode(r frameRec, n ssd.NodeID) int { return cmp.Compare(r.node, n) }

// out returns n's edges, decoding its record on first touch. The caller
// holds a pin on fr. Concurrent first touches each decode; one publishes.
func (fr *frame) out(n ssd.NodeID) []ssd.Edge {
	i := fr.find(n)
	if i < 0 || fr.recs[i].deg == 0 {
		return nil
	}
	if fr.state[i].Load() == recReady {
		return fr.edges[i]
	}
	rec := fr.recs[i]
	es := make([]ssd.Edge, rec.deg)
	// The load pass validated this record, so decoding cannot fail.
	r := reader{data: fr.data, pos: int(rec.off)}
	for j := range es {
		l, _ := r.label()
		to, _ := r.uvarint()
		es[j] = ssd.Edge{Label: l, To: ssd.NodeID(to)}
	}
	if fr.state[i].CompareAndSwap(0, recClaimed) {
		fr.edges[i] = es
		fr.state[i].Store(recReady)
	}
	return es
}

// maxFreeFrames bounds the evicted single-page frames a store keeps for
// reuse by later misses.
const maxFreeFrames = 16

// PageStore serves the GraphStore read surface from a page file through a
// byte-budgeted LRU buffer pool. It is safe for concurrent readers; the
// pool is guarded by one mutex, with file reads done via ReadAt (itself
// concurrency-safe). Page-level I/O or corruption discovered on the read
// path panics with a descriptive error — the query executor's recover
// turns that into a cursor error, mirroring the in-memory store's
// out-of-range panics.
type PageStore struct {
	f        *os.File
	path     string
	pageSize int
	numPages int
	root     ssd.NodeID
	dir      []uint32 // node → first page of its run

	mu       sync.Mutex
	frames   map[uint32]*frame
	lruHead  *frame   // most recently released
	lruTail  *frame   // eviction victim
	free     []*frame // evicted single-page frames, reused by loadFrame
	resident int64
	pinned   int64 // pinned pages (not frames): multi-page runs count fully
	budget   int64
	hits     int64
	misses   int64
	evicted  int64
	closed   bool
}

var (
	_ ssd.GraphStore       = (*PageStore)(nil)
	_ ssd.AccessorProvider = (*PageStore)(nil)
)

// OpenPageFile opens a page file with a buffer-pool budget of poolBytes
// (non-positive means DefaultPoolBytes). The header and directory are
// validated (magic, version, CRC, file size); page payloads are checked
// lazily, per run, as frames load.
func OpenPageFile(path string, poolBytes int64) (*PageStore, error) {
	if poolBytes <= 0 {
		poolBytes = DefaultPoolBytes
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var fixed [fileHdrLen]byte
	if _, err := f.ReadAt(fixed[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s: header: %w", path, err)
	}
	if string(fixed[:4]) != pageMagic {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s: bad magic", path)
	}
	if fixed[4] != pageVersion {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s: unsupported version %d", path, fixed[4])
	}
	pageSize := int(binary.LittleEndian.Uint32(fixed[8:]))
	numPages := int(binary.LittleEndian.Uint32(fixed[12:]))
	numNodes := int(binary.LittleEndian.Uint32(fixed[16:]))
	root := ssd.NodeID(binary.LittleEndian.Uint32(fixed[20:]))
	if pageSize < MinPageSize || numNodes < 1 || int(root) >= numNodes {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s: implausible header", path)
	}
	headLen := fileHdrLen + 4*numNodes + 4
	// Check the size the header implies before allocating the directory
	// from it: a damaged node count must fail here, not as a multi-GiB
	// allocation.
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() != int64(headLen)+int64(numPages)*int64(pageSize) {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s: truncated (%d bytes, want %d)",
			path, st.Size(), int64(headLen)+int64(numPages)*int64(pageSize))
	}
	head := make([]byte, headLen)
	if _, err := f.ReadAt(head, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s: directory: %w", path, err)
	}
	want := binary.LittleEndian.Uint32(head[headLen-4:])
	if crc32.ChecksumIEEE(head[:headLen-4]) != want {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s: header checksum mismatch", path)
	}
	dir := make([]uint32, numNodes)
	for i := range dir {
		dir[i] = binary.LittleEndian.Uint32(head[fileHdrLen+4*i:])
		if int(dir[i]) >= numPages {
			f.Close()
			return nil, fmt.Errorf("storage: page file %s: directory entry %d out of range", path, i)
		}
	}
	ps := &PageStore{
		f:        f,
		path:     path,
		pageSize: pageSize,
		numPages: numPages,
		root:     root,
		dir:      dir,
		frames:   make(map[uint32]*frame),
		budget:   poolBytes,
	}
	liveMu.Lock()
	liveStores[ps] = struct{}{}
	liveMu.Unlock()
	return ps, nil
}

// Close releases the pool and the file. Edge slices handed out earlier
// remain valid (they are garbage-collected memory), but no further reads
// may be issued through the store.
func (ps *PageStore) Close() error {
	liveMu.Lock()
	delete(liveStores, ps)
	liveMu.Unlock()
	ps.mu.Lock()
	ps.closed = true
	ps.frames = nil
	ps.free = nil
	ps.lruHead, ps.lruTail = nil, nil
	ps.resident, ps.pinned = 0, 0
	ps.mu.Unlock()
	return ps.f.Close()
}

// Path returns the page file's path.
func (ps *PageStore) Path() string { return ps.path }

// NumPages returns the number of pages in the file.
func (ps *PageStore) NumPages() int { return ps.numPages }

// Stats returns a snapshot of the pool counters.
func (ps *PageStore) Stats() PoolStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return PoolStats{
		Hits:          ps.hits,
		Misses:        ps.misses,
		Evictions:     ps.evicted,
		ResidentBytes: ps.resident,
		PinnedPages:   ps.pinned,
	}
}

// acquire returns the frame whose run starts at page, pinned. Misses load
// and validate under the pool mutex: simple, and the warm path (the one
// that matters for query latency) only takes the lock for a map hit.
func (ps *PageStore) acquire(page uint32) *frame {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		panic(fmt.Sprintf("storage: read on closed page store %s", ps.path))
	}
	if fr, ok := ps.frames[page]; ok {
		ps.hits++
		poolHits.Inc()
		if fr.pins == 0 {
			ps.lruUnlink(fr)
		}
		fr.pins++
		ps.pinned += fr.bytes / int64(ps.pageSize)
		ps.mu.Unlock()
		return fr
	}
	ps.misses++
	poolMisses.Inc()
	fr, err := ps.loadFrame(page)
	if err != nil {
		ps.mu.Unlock()
		panic(fmt.Sprintf("storage: page store %s: %v", ps.path, err))
	}
	fr.pins = 1
	ps.frames[page] = fr
	ps.resident += fr.bytes
	ps.pinned += fr.bytes / int64(ps.pageSize)
	ps.evictLocked()
	ps.mu.Unlock()
	return fr
}

// release drops one pin; the frame joins the LRU list when unpinned and
// may be evicted immediately if the pool is over budget.
func (ps *PageStore) release(fr *frame) {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return
	}
	fr.pins--
	ps.pinned -= fr.bytes / int64(ps.pageSize)
	if fr.pins == 0 {
		ps.lruPushFront(fr)
		ps.evictLocked()
	}
	ps.mu.Unlock()
}

// evictLocked drops least-recently-used unpinned frames while the pool is
// over budget. When every frame is pinned the pool overcommits rather than
// blocking — a 2-page pool must not deadlock a traversal that needs three
// pages at once; the pinned_pages gauge makes the overcommit visible.
func (ps *PageStore) evictLocked() {
	for ps.resident > ps.budget && ps.lruTail != nil {
		victim := ps.lruTail
		ps.lruUnlink(victim)
		delete(ps.frames, victim.page)
		ps.resident -= victim.bytes
		ps.evicted++
		poolEvictions.Inc()
		if victim.bytes == int64(ps.pageSize) && len(ps.free) < maxFreeFrames {
			// Drop the decoded slices (escaped copies stay valid: they are
			// GC memory) and reset the publish states for the next run.
			clear(victim.edges)
			clear(victim.state)
			ps.free = append(ps.free, victim)
		}
	}
}

func (ps *PageStore) lruPushFront(fr *frame) {
	fr.prev = nil
	fr.next = ps.lruHead
	if ps.lruHead != nil {
		ps.lruHead.prev = fr
	}
	ps.lruHead = fr
	if ps.lruTail == nil {
		ps.lruTail = fr
	}
}

func (ps *PageStore) lruUnlink(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		ps.lruHead = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		ps.lruTail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

// loadFrame reads the run starting at page, checks its CRC and validates
// every record, recording where each starts; it decodes nothing. Called
// with the pool mutex held.
func (ps *PageStore) loadFrame(page uint32) (*frame, error) {
	headOff := int64(fileHdrLen+4*len(ps.dir)+4) + int64(page)*int64(ps.pageSize)
	var fr *frame
	if k := len(ps.free); k > 0 {
		fr = ps.free[k-1]
		ps.free[k-1] = nil
		ps.free = ps.free[:k-1]
	} else {
		fr = &frame{buf: make([]byte, ps.pageSize)}
	}
	buf := fr.buf[:ps.pageSize]
	if _, err := ps.f.ReadAt(buf, headOff); err != nil {
		return nil, fmt.Errorf("page %d: %w", page, err)
	}
	dataLen := int(binary.LittleEndian.Uint32(buf[0:]))
	nrec := int(binary.LittleEndian.Uint16(buf[4:]))
	wantCRC := binary.LittleEndian.Uint32(buf[8:])
	runPages := (pageHdrLen + dataLen + ps.pageSize - 1) / ps.pageSize
	if runPages < 1 || int(page)+runPages > ps.numPages {
		return nil, fmt.Errorf("page %d: run of %d pages out of range", page, runPages)
	}
	if runPages > 1 {
		// Multi-page runs get a buffer of their own, left to the GC on
		// eviction.
		buf = make([]byte, pageHdrLen+dataLen)
		if _, err := ps.f.ReadAt(buf, headOff); err != nil {
			return nil, fmt.Errorf("page %d: %w", page, err)
		}
		fr = &frame{buf: buf}
	}
	data := buf[pageHdrLen : pageHdrLen+dataLen]
	if crc32.ChecksumIEEE(data) != wantCRC {
		return nil, fmt.Errorf("page %d: record checksum mismatch", page)
	}
	recs := fr.recs[:0]
	r := reader{data: data}
	for i := 0; i < nrec; i++ {
		node, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("page %d record %d: %w", page, i, err)
		}
		if node >= uint64(len(ps.dir)) {
			return nil, fmt.Errorf("page %d record %d: node %d out of range", page, i, node)
		}
		deg, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("page %d record %d: %w", page, i, err)
		}
		off := r.pos
		// Every edge takes at least two bytes, so a damaged degree runs
		// out of data long before the count does.
		for j := uint64(0); j < deg; j++ {
			if err := r.skipLabel(); err != nil {
				return nil, fmt.Errorf("page %d record %d edge %d: %w", page, i, j, err)
			}
			to, err := r.uvarint()
			if err != nil {
				return nil, fmt.Errorf("page %d record %d edge %d: %w", page, i, j, err)
			}
			if to >= uint64(len(ps.dir)) {
				return nil, fmt.Errorf("page %d record %d: edge target %d out of range", page, i, to)
			}
		}
		recs = append(recs, frameRec{node: ssd.NodeID(node), deg: uint32(deg), off: uint32(off)})
	}
	byNode := func(a, b frameRec) int { return cmp.Compare(a.node, b.node) }
	if !slices.IsSortedFunc(recs, byNode) {
		slices.SortFunc(recs, byNode)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].node == recs[i-1].node {
			return nil, fmt.Errorf("page %d: node %d recorded twice", page, recs[i].node)
		}
	}
	if cap(fr.state) < nrec {
		fr.state = make([]atomic.Uint32, nrec)
		fr.edges = make([][]ssd.Edge, nrec)
	}
	fr.page = page
	fr.bytes = int64(runPages) * int64(ps.pageSize)
	fr.data = data
	fr.recs = recs
	fr.state = fr.state[:nrec]
	fr.edges = fr.edges[:nrec]
	return fr, nil
}

func (ps *PageStore) check(n ssd.NodeID) {
	if n < 0 || int(n) >= len(ps.dir) {
		panic(fmt.Sprintf("storage: node %d out of range [0,%d)", n, len(ps.dir)))
	}
}

// Root returns the distinguished root node.
func (ps *PageStore) Root() ssd.NodeID { return ps.root }

// NumNodes returns the number of nodes in the page file.
func (ps *PageStore) NumNodes() int { return len(ps.dir) }

// Out returns the outgoing edges of n — the unpinned slow path: one pool
// acquire/release per call. Hot loops should read through an Accessor.
// The returned slice stays valid after eviction (GC-owned memory) but must
// not be mutated.
func (ps *PageStore) Out(n ssd.NodeID) []ssd.Edge {
	ps.check(n)
	fr := ps.acquire(ps.dir[n])
	es := fr.out(n)
	ps.release(fr)
	return es
}

// accessorRing is how many frames one accessor keeps pinned. Traversals
// alternate between a parent's page and a child's page (plus an index or
// guide probe); four covers the common interleavings without holding a
// tiny pool hostage.
const accessorRing = 4

// pageAccessor is the pinned fast path: a single-goroutine ring of pinned
// frames consulted before the pool, so a clustered traversal touching the
// same page repeatedly skips the pool mutex entirely.
type pageAccessor struct {
	ps     *PageStore
	frames [accessorRing]*frame
	clock  int
}

// Accessor returns a fresh pinning read handle. The caller must Release
// it on every path — the pincheck analyzer enforces this.
//
//ssd:mustunpin
func (ps *PageStore) Accessor() ssd.StoreAccessor {
	return &pageAccessor{ps: ps}
}

func (a *pageAccessor) frameFor(page uint32) *frame {
	for _, fr := range a.frames {
		if fr != nil && fr.page == page {
			return fr
		}
	}
	fr := a.ps.acquire(page)
	slot := a.clock
	a.clock = (a.clock + 1) % accessorRing
	if old := a.frames[slot]; old != nil {
		a.ps.release(old)
	}
	a.frames[slot] = fr
	return fr
}

// Release unpins every frame the accessor holds. Idempotent.
func (a *pageAccessor) Release() {
	for i, fr := range a.frames {
		if fr != nil {
			a.ps.release(fr)
			a.frames[i] = nil
		}
	}
}

// Root returns the distinguished root node.
func (a *pageAccessor) Root() ssd.NodeID { return a.ps.root }

// NumNodes returns the number of nodes in the page file.
func (a *pageAccessor) NumNodes() int { return len(a.ps.dir) }

// Out returns the outgoing edges of n through the pinned ring.
func (a *pageAccessor) Out(n ssd.NodeID) []ssd.Edge {
	a.ps.check(n)
	return a.frameFor(a.ps.dir[n]).out(n)
}
