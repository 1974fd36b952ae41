package mutate

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ssd"
)

func fig1Fragment() *ssd.Graph {
	return ssd.MustParse(`{Entry: {Movie: {Title: "Casablanca", Director: "Curtiz"}}}`)
}

// randBatch draws a batch of every record kind against g, mutating nothing.
func randBatch(g *ssd.Graph, rng *rand.Rand, ops int) *Batch {
	b := NewBatch(g)
	labels := []ssd.Label{
		ssd.Sym("a"), ssd.Sym("b"), ssd.Str("s"), ssd.Int(-3), ssd.Float(2.5),
		ssd.Bool(true), ssd.OID("&o"),
	}
	limit := func() int32 { return int32(g.NumNodes()) + int32(b.added) }
	anyNode := func() ssd.NodeID { return ssd.NodeID(rng.Int31n(limit())) }
	for i := 0; i < ops; i++ {
		var err error
		switch rng.Intn(6) {
		case 0:
			b.AddNode()
		case 1:
			err = b.AddEdge(anyNode(), labels[rng.Intn(len(labels))], anyNode())
		case 2:
			err = b.DeleteEdge(anyNode(), labels[rng.Intn(len(labels))], anyNode())
		case 3:
			err = b.Relabel(anyNode(), labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))])
		case 4:
			err = b.SetOID(anyNode(), "&obj")
		default:
			err = b.SetRoot(anyNode())
		}
		if err != nil {
			panic(err)
		}
	}
	return b
}

func TestBatchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := fig1Fragment()
	for iter := 0; iter < 100; iter++ {
		b := randBatch(g, rng, 1+rng.Intn(12))
		enc := EncodeBatch(b)
		back, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !reflect.DeepEqual(back.recs, b.recs) || back.baseNodes != b.baseNodes || back.added != b.added {
			t.Fatalf("iter %d: decoded batch differs", iter)
		}
		if !bytes.Equal(EncodeBatch(back), enc) {
			t.Fatalf("iter %d: re-encode not byte-identical", iter)
		}
	}
	if _, err := DecodeBatch([]byte{0x01}); err == nil {
		t.Error("truncated batch decoded without error")
	}
	if _, err := DecodeBatch(append(EncodeBatch(NewBatch(g)), 0xff)); err == nil {
		t.Error("trailing bytes not rejected")
	}
}

func TestApplyCOWIsolationAndDelta(t *testing.T) {
	g := fig1Fragment()
	before := ssd.FormatRoot(g)
	entry := g.LookupFirst(g.Root(), ssd.Sym("Entry"))
	movie := g.LookupFirst(entry, ssd.Sym("Movie"))
	title := g.LookupFirst(movie, ssd.Sym("Title"))

	b := NewBatch(g)
	year := b.AddNode()
	leaf := b.AddNode()
	if err := b.AddEdge(movie, ssd.Sym("Year"), year); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(year, ssd.Int(1942), leaf); err != nil {
		t.Fatal(err)
	}
	if err := b.Relabel(movie, ssd.Sym("Director"), ssd.Sym("DirectedBy")); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteEdge(movie, ssd.Sym("Title"), title); err != nil {
		t.Fatal(err)
	}
	if err := b.SetOID(movie, "&m1"); err != nil {
		t.Fatal(err)
	}

	h, res, err := ApplyCOW(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := ssd.FormatRoot(g); got != before {
		t.Fatalf("base graph changed:\n got %s\nwant %s", got, before)
	}
	if res.NodesAdded != 2 || !res.OIDChanged || res.RootChanged {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Delta.Added) != 3 || len(res.Delta.Removed) != 2 {
		t.Fatalf("delta = %+v", res.Delta)
	}
	if h.NumNodes() != g.NumNodes()+2 {
		t.Fatalf("clone nodes = %d", h.NumNodes())
	}
	if got := h.Lookup(movie, ssd.Sym("DirectedBy")); len(got) != 1 {
		t.Fatalf("relabel missing: %v", got)
	}
	if got := h.Lookup(movie, ssd.Sym("Title")); len(got) != 0 {
		t.Fatalf("delete missing: %v", got)
	}
	if id, ok := h.OIDOf(movie); !ok || id != "&m1" {
		t.Fatalf("oid = %q, %v", id, ok)
	}
	if _, ok := g.OIDOf(movie); ok {
		t.Fatal("oid leaked into base graph")
	}
}

// TestApplyCOWCopiesNodeTableOnce: the clone's node table has room for
// the batch's nodes, so an insert allocates one table, not a copy and then
// a regrown copy.
func TestApplyCOWCopiesNodeTableOnce(t *testing.T) {
	g := ssd.New()
	g.AddNodes(100_000)
	for n := 1; n < 100; n++ {
		g.AddEdge(g.Root(), ssd.Sym("Entry"), ssd.NodeID(n))
	}
	b, err := ParseScript(writeMixScripts[0], g) // the write mix's insert: 9 nodes, 9 edges
	if err != nil {
		t.Fatal(err)
	}
	table := uint64(g.NumNodes()) * uint64(unsafe.Sizeof([]ssd.Edge(nil)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		h, _, err := ApplyCOW(g, b)
		if err != nil || h.NumNodes() != g.NumNodes()+9 {
			t.Fatalf("apply: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= table*3/2 {
		t.Fatalf("ApplyCOW allocated %d bytes per insert; one node table is %d", per, table)
	}
}

func TestApplyRejectsBadBatches(t *testing.T) {
	g := fig1Fragment()
	b := NewBatch(g)
	if err := b.AddEdge(ssd.NodeID(999), ssd.Sym("x"), g.Root()); err == nil {
		t.Error("out-of-range AddEdge accepted at build time")
	}
	b.AddNode()
	g.AddNode() // concurrent allocation: base version moved
	if _, _, err := ApplyCOW(g, b); err == nil {
		t.Error("stale-base batch with AddNode applied without error")
	}
}

func TestParseScript(t *testing.T) {
	g := fig1Fragment()
	entry := g.LookupFirst(g.Root(), ssd.Sym("Entry"))
	movie := g.LookupFirst(entry, ssd.Sym("Movie"))
	src := `
		// attach a year subtree and rename the director edge
		addnode ; addnode
		addedge ` + itoa(movie) + ` Year $0
		addedge $0 1942 $1
		relabel ` + itoa(movie) + ` Director "Directed By"
		setoid $0 &y1
		setroot ` + itoa(entry) + `
	`
	b, err := ParseScript(src, g)
	if err != nil {
		t.Fatal(err)
	}
	h, res, err := ApplyCOW(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RootChanged || res.NodesAdded != 2 {
		t.Fatalf("result = %+v", res)
	}
	if h.Root() != entry {
		t.Fatalf("root = %d, want %d", h.Root(), entry)
	}
	year := h.LookupFirst(movie, ssd.Sym("Year"))
	if year == ssd.InvalidNode {
		t.Fatal("Year edge missing")
	}
	if got := h.Lookup(year, ssd.Int(1942)); len(got) != 1 {
		t.Fatalf("int label edge missing: %v", got)
	}
	if got := h.Lookup(movie, ssd.Str("Directed By")); len(got) != 1 {
		t.Fatalf("relabel to string label missing: %v", got)
	}
	if id, ok := h.OIDOf(year); !ok || id != "&y1" {
		t.Fatalf("oid = %q, %v", id, ok)
	}

	for _, bad := range []string{
		"frobnicate 1", "addedge 0 x", "addedge $9 x 0", "addedge 0 \"unterminated 1",
	} {
		if _, err := ParseScript(bad, g); err == nil {
			t.Errorf("ParseScript(%q) succeeded", bad)
		}
	}
}

// TestScriptQuotedSeparators: `;` and `//` inside a quoted label are part
// of the label; outside one they still end a statement or start a comment,
// also right after a label that holds them.
func TestScriptQuotedSeparators(t *testing.T) {
	g := fig1Fragment()
	b, err := ParseScript(`addedge 0 "http://x" 0; addedge 0 "a;b" 0 // "c;d"
addedge 0 "e\"//" 0;addedge 0 f"g 0`, g)
	if err != nil {
		t.Fatal(err)
	}
	var got []ssd.Label
	for _, r := range b.Recs() {
		got = append(got, r.Label)
	}
	want := []ssd.Label{ssd.Str("http://x"), ssd.Str("a;b"), ssd.Str(`e"//`), ssd.Sym(`f"g`)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
	// A quote inside a field opens no string: the `;` after it still splits.
	if _, err := ParseScript(`addedge 0 x"; addnode`, g); err == nil || !strings.Contains(err.Error(), "statement 1: addedge takes 3 arguments") {
		t.Fatalf("mid-field quote: err = %v", err)
	}
}

func itoa(n ssd.NodeID) string { return strconv.Itoa(int(n)) }

// TestDeltaSources pins what each edit records in Delta.Sources: +1 when a
// node gains its first out-edge with a label, −1 when it loses its last,
// nothing otherwise.
func TestDeltaSources(t *testing.T) {
	x, y, z := ssd.Sym("x"), ssd.Sym("y"), ssd.Sym("z")
	for _, c := range []struct {
		name, script string
		want         []ssd.SourceChange
	}{
		{"first edge", "addedge 1 x 2", []ssd.SourceChange{{Label: x, N: 1}}},
		{"second edge", "addedge 1 x 2; addedge 1 x 3", []ssd.SourceChange{{Label: x, N: 1}}},
		{"delete one of two", "addedge 1 x 2; addedge 1 x 3; deledge 1 x 2", []ssd.SourceChange{{Label: x, N: 1}}},
		{"delete the last", "addedge 1 x 2; deledge 1 x 2", []ssd.SourceChange{{Label: x, N: 1}, {Label: x, N: -1}}},
		{"delete a missing edge", "deledge 1 x 2", nil},
		{"relabel to itself", "addedge 1 x 2; relabel 1 x x", []ssd.SourceChange{{Label: x, N: 1}}},
		{"relabel to a fresh label", "addedge 1 x 2; addedge 1 x 3; relabel 1 x y",
			[]ssd.SourceChange{{Label: x, N: 1}, {Label: x, N: -1}, {Label: y, N: 1}}},
		{"relabel onto a present label", "addedge 1 x 2; addedge 1 z 3; relabel 1 x z",
			[]ssd.SourceChange{{Label: x, N: 1}, {Label: z, N: 1}, {Label: x, N: -1}}},
		{"relabel a missing label", "relabel 1 x y", nil},
	} {
		g := fig1Fragment()
		b, err := ParseScript(c.script, g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ApplyInPlace(g, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Delta.Sources, c.want) {
			t.Errorf("%s: Sources = %v, want %v", c.name, res.Delta.Sources, c.want)
		}
	}
}

// TestNaNLabelRejected: NaN never equals itself, so a NaN float label
// could be neither deleted nor found again by any map keyed by label. The
// script reads NaN and Inf as symbols, like every other front-end; the
// batch builder and the batch codec refuse a NaN float.
func TestNaNLabelRejected(t *testing.T) {
	g := fig1Fragment()
	for tok, want := range map[string]ssd.Label{
		"NaN": ssd.Sym("NaN"), "nan": ssd.Sym("nan"), "Inf": ssd.Sym("Inf"), "inf": ssd.Sym("inf"),
		"Infinity": ssd.Sym("Infinity"), "-Inf": ssd.Sym("-Inf"), "0x10": ssd.Sym("0x10"), "1.": ssd.Sym("1."),
		"+5": ssd.Sym("+5"), "-5": ssd.Int(-5), "1e5": ssd.Float(1e5), "-2.5e-3": ssd.Float(-2.5e-3),
		"99999999999999999999": ssd.Float(99999999999999999999),
	} {
		b, err := ParseScript("addedge 0 "+tok+" 0", g)
		if err != nil {
			t.Errorf("%s: %v", tok, err)
		} else if got := b.Recs()[0].Label; got != want {
			t.Errorf("%s read as %v (%s), want %v (%s)", tok, got, got.Kind(), want, want.Kind())
		}
	}

	nan := ssd.Float(math.NaN())
	b := NewBatch(g)
	for name, err := range map[string]error{
		"AddEdge":     b.AddEdge(0, nan, 0),
		"DeleteEdge":  b.DeleteEdge(0, nan, 0),
		"Relabel old": b.Relabel(0, nan, ssd.Sym("x")),
		"Relabel new": b.Relabel(0, ssd.Sym("x"), nan),
	} {
		if err == nil {
			t.Errorf("%s accepted a NaN label", name)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("rejected records were kept: %v", b.Recs())
	}
	for _, r := range []Rec{
		{Op: OpAddEdge, Label: nan},
		{Op: OpDeleteEdge, Label: nan},
		{Op: OpRelabel, Old: ssd.Sym("x"), Label: nan},
	} {
		b := NewBatch(g)
		b.recs = append(b.recs, r)
		if _, err := DecodeBatch(EncodeBatch(b)); err == nil {
			t.Errorf("DecodeBatch accepted a NaN label in %s", r.Op)
		}
	}
}
