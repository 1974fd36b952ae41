package storage

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/bisim"
	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

func sample(t *testing.T) *ssd.Graph {
	t.Helper()
	g, err := ssd.Parse(`
	{Entry: #e{Movie: {Title: "Casablanca", Year: 1942, Rating: 8.5,
	                   Classic: true, Self: #e, ID: &obj1{}}}}`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCodecRoundTrip(t *testing.T) {
	g := sample(t)
	data := Encode(g)
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("size changed: %d/%d vs %d/%d nodes/edges",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if !bisim.Equal(g, back) {
		t.Error("value changed in round trip")
	}
	// OIDs survive.
	found := false
	for v := 0; v < back.NumNodes(); v++ {
		if id, ok := back.OIDOf(ssd.NodeID(v)); ok && id == "obj1" {
			found = true
		}
	}
	if !found {
		t.Error("oid lost in round trip")
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ssd.New()
		ids := []ssd.NodeID{g.Root()}
		for i := 0; i < 20; i++ {
			ids = append(ids, g.AddNode())
		}
		labels := []ssd.Label{
			ssd.Sym("a"), ssd.Str("s"), ssd.Int(-42), ssd.Float(2.5),
			ssd.Bool(true), ssd.OID("x"),
		}
		for i := 0; i < 50; i++ {
			g.AddEdge(ids[rng.Intn(len(ids))], labels[rng.Intn(len(labels))], ids[rng.Intn(len(ids))])
		}
		back, err := Decode(Encode(g))
		if err != nil {
			return false
		}
		return back.NumEdges() == g.NumEdges() && bisim.Equal(g, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("SSDG\x02"),         // bad version
		[]byte("SSDG\x01"),         // truncated
		[]byte("SSDG\x01\x00\xff"), // truncated varint
	}
	for _, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode(%q) should fail", data)
		}
	}
	// Corrupt a valid encoding by chopping bytes.
	g := sample(t)
	data := Encode(g)
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestNonMinimalVarintsRejected: the shared reader accepts each value in
// its one minimal spelling only, for unsigned and signed varints alike.
func TestNonMinimalVarintsRejected(t *testing.T) {
	for _, data := range [][]byte{{0x80, 0x00}, {0x81, 0x00}, {0xff, 0x80, 0x00}} {
		if v, _, err := ReadUvarint(data, 0); err == nil {
			t.Errorf("ReadUvarint(% x) = %d, want an error", data, v)
		}
	}
	for _, data := range [][]byte{
		{byte(ssd.KindInt), 0x80, 0x00},
		{byte(ssd.KindInt), 0x83, 0x80, 0x00},
		{byte(ssd.KindSymbol), 0x80, 0x00},
		{byte(ssd.KindString), 0x81, 0x00, 'x'},
	} {
		if l, _, err := ReadLabel(data, 0); err == nil {
			t.Errorf("ReadLabel(% x) = %s, want an error", data, l)
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 1 << 35, 1<<64 - 1} {
		data := binary.AppendUvarint(nil, v)
		if got, n, err := ReadUvarint(data, 0); err != nil || got != v || n != len(data) {
			t.Errorf("ReadUvarint(% x) = %d, %d, %v", data, got, n, err)
		}
	}
	for _, v := range []int64{0, -1, 63, -64, 64, math.MinInt64, math.MaxInt64} {
		data := ssd.AppendLabel(nil, ssd.Int(v))
		if got, n, err := ReadLabel(data, 0); err != nil || got != ssd.Int(v) || n != len(data) {
			t.Errorf("ReadLabel(% x) = %s, %d, %v", data, got, n, err)
		}
	}
	// A bool label has one byte per value: 00 or 01.
	for b, want := range map[byte]bool{0: true, 1: true, 2: false, 0xff: false} {
		data := []byte{byte(ssd.KindBool), b}
		_, _, err := ReadLabel(data, 0)
		if (err == nil) != want {
			t.Errorf("ReadLabel(% x): err %v, want accepted=%t", data, err, want)
		}
		r := reader{data: data}
		if err := r.skipLabel(); (err == nil) != want {
			t.Errorf("skipLabel(% x): err %v, want accepted=%t", data, err, want)
		}
	}
	// A graph image spelling its root in two bytes does not decode.
	data := Encode(sample(t))
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(append(data[:5:5], data[5]|0x80, 0x00), data[6:]...)); err == nil {
		t.Error("Decode accepted a non-minimal root")
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := sample(t)
	path := filepath.Join(t.TempDir(), "db.ssdg")
	if err := WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bisim.Equal(g, back) {
		t.Error("file round trip changed value")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should error")
	}
}

func chainGraph(n int) *ssd.Graph {
	g := ssd.New()
	cur := g.Root()
	for i := 0; i < n; i++ {
		cur = g.AddLeaf(cur, ssd.Sym("next"))
	}
	return g
}

// openPaged writes g as a page file and opens it, cleaning up at test end.
func openPaged(t *testing.T, g *ssd.Graph, c Clustering, pageSize int, poolBytes int64) *PageStore {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.ssdp")
	if err := WritePageFile(path, g, c, pageSize); err != nil {
		t.Fatal(err)
	}
	ps, err := OpenPageFile(path, poolBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return ps
}

func randomGraph(t *testing.T, seed int64) *ssd.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := ssd.New()
	ids := []ssd.NodeID{g.Root()}
	for i := 0; i < 50; i++ {
		ids = append(ids, g.AddNode())
	}
	labels := []ssd.Label{ssd.Sym("a"), ssd.Sym("b"), ssd.Str("s"), ssd.Int(7), ssd.Float(2.5), ssd.Bool(true)}
	for i := 0; i < 140; i++ {
		g.AddEdge(ids[rng.Intn(len(ids))], labels[rng.Intn(len(labels))], ids[rng.Intn(len(ids))])
	}
	return g
}

func TestPageFileRoundTrip(t *testing.T) {
	g := randomGraph(t, 5)
	for _, c := range []Clustering{ClusterDFS, ClusterBFS, ClusterRandom} {
		for _, pageSize := range []int{MinPageSize, 256, DefaultPageSize} {
			ps := openPaged(t, g, c, pageSize, 0)
			if ps.Root() != g.Root() || ps.NumNodes() != g.NumNodes() {
				t.Fatalf("%s/%d: root/nodes = %d/%d, want %d/%d",
					c, pageSize, ps.Root(), ps.NumNodes(), g.Root(), g.NumNodes())
			}
			for v := 0; v < g.NumNodes(); v++ {
				n := ssd.NodeID(v)
				if !reflect.DeepEqual(ps.Out(n), g.Out(n)) {
					t.Fatalf("%s/%d: Out(%d) = %v, want %v", c, pageSize, n, ps.Out(n), g.Out(n))
				}
			}
		}
	}
}

func TestPagedEvalMatchesInMemory(t *testing.T) {
	g := randomGraph(t, 5)
	for _, c := range []Clustering{ClusterDFS, ClusterBFS, ClusterRandom} {
		ps := openPaged(t, g, c, 128, 512)
		for _, src := range []string{"a*", "(a|b)._", "_*"} {
			want := pathexpr.MustCompile(src).Eval(g, g.Root())
			got := pathexpr.MustCompile(src).Eval(ps, ps.Root())
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s clustering %s: %v != %v", c, src, got, want)
			}
		}
	}
}

func TestClusteringLocality(t *testing.T) {
	// On a deep chain with a small pool, DFS clustering faults once per
	// page; random placement faults nearly once per node.
	g := chainGraph(2000)
	dfs := openPaged(t, g, ClusterDFS, 256, 4*256)
	rnd := openPaged(t, g, ClusterRandom, 256, 4*256)
	ssd.ReachableFrom(dfs, dfs.Root())
	ssd.ReachableFrom(rnd, rnd.Root())
	dm := dfs.Stats().Misses
	rm := rnd.Stats().Misses
	if dm*5 >= rm {
		t.Errorf("DFS clustering should fault ≫ less: dfs=%d random=%d", dm, rm)
	}
}

func TestPageStoreScanVisitsAll(t *testing.T) {
	g := chainGraph(100)
	ps := openPaged(t, g, ClusterDFS, 128, 0)
	seen := ssd.ReachableFrom(ps, ps.Root())
	visited := 0
	for _, ok := range seen {
		if ok {
			visited++
		}
	}
	if visited != 101 {
		t.Errorf("visited = %d, want 101", visited)
	}
}

func TestPageStoreEvictionBudget(t *testing.T) {
	g := chainGraph(500)
	ps := openPaged(t, g, ClusterDFS, 128, 2*128) // 2-page pool
	ssd.ReachableFrom(ps, ps.Root())
	s := ps.Stats()
	if s.Evictions == 0 {
		t.Error("tiny pool scan should evict")
	}
	if s.ResidentBytes > 2*128 {
		t.Errorf("resident %d bytes exceeds 2-page budget with nothing pinned", s.ResidentBytes)
	}
	if s.PinnedPages != 0 {
		t.Errorf("pinned = %d after scan, want 0", s.PinnedPages)
	}
}

func TestPageStoreAccessorPins(t *testing.T) {
	g := chainGraph(500)
	ps := openPaged(t, g, ClusterDFS, 128, 2*128)
	acc := ps.Accessor()
	cur := ps.Root()
	for {
		es := acc.Out(cur)
		if len(es) == 0 {
			break
		}
		cur = es[0].To
	}
	if got := ps.Stats().PinnedPages; got == 0 {
		t.Error("accessor should hold pinned pages mid-iteration")
	}
	acc.Release()
	acc.Release() // idempotent
	if got := ps.Stats().PinnedPages; got != 0 {
		t.Errorf("pinned = %d after Release, want 0", got)
	}
	if s := ps.Stats(); s.ResidentBytes > 2*128 {
		t.Errorf("resident %d bytes exceeds budget after release", s.ResidentBytes)
	}
}

// Regression: layoutOrder (and hence WritePageFile) must not index
// seen[g.Root()] on a graph with zero nodes.
func TestLayoutOrderEmptyGraph(t *testing.T) {
	var g ssd.Graph // zero value: no nodes at all
	for _, c := range []Clustering{ClusterDFS, ClusterBFS, ClusterRandom} {
		if got := layoutOrder(&g, c, 1); len(got) != 0 {
			t.Errorf("%s: layoutOrder on empty graph = %v, want empty", c, got)
		}
	}
	if err := WritePageFile(filepath.Join(t.TempDir(), "p.ssdp"), &g, ClusterDFS, 128); err == nil {
		t.Error("WritePageFile on empty graph should error, not panic")
	}
}

func TestOpenPageFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenPageFile(filepath.Join(dir, "missing"), 0); err == nil {
		t.Error("missing file should error")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("XXXXnot a page file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPageFile(bad, 0); err == nil {
		t.Error("bad magic should error")
	}

	g := chainGraph(50)
	path := filepath.Join(dir, "pages.ssdp")
	if err := WritePageFile(path, g, ClusterDFS, 128); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation: the size check must reject a torn file.
	if err := os.WriteFile(path, data[:len(data)-64], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPageFile(path, 0); err == nil {
		t.Error("truncated page file should error")
	}
	// Header corruption: flip a directory byte.
	corrupt := append([]byte(nil), data...)
	corrupt[fileHdrLen+1] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPageFile(path, 0); err == nil {
		t.Error("corrupted directory should fail the checksum")
	}
}

// TestOpenPageFileDamagedNodeCount: a header whose node count was
// overwritten with 0xffffffff implies a 16 GiB directory. Opening must
// reject the file from its size before allocating anything that large.
func TestOpenPageFileDamagedNodeCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.ssdp")
	if err := WritePageFile(path, chainGraph(50), ClusterDFS, 128); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[16:20], []byte{0xff, 0xff, 0xff, 0xff})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ps, err := OpenPageFile(path, 0)
	runtime.ReadMemStats(&after)
	if err == nil {
		ps.Close()
		t.Fatal("page file with a damaged node count opened")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting the damaged header allocated %d bytes, want < 1 MiB", alloc)
	}
}
