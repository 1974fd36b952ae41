package mutate

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/ssd"
)

// FuzzDecodeBatch feeds arbitrary bytes to the batch decoder — the bytes a
// WAL frame or a replication stream hands it. DecodeBatch must never panic;
// a batch it accepts must re-encode to exactly the accepted bytes (one
// batch, one encoding) and survive an encode/decode round trip unchanged,
// and applying it copy-on-write must return an error or a result without
// panicking and without touching the input graph.
//
//	go test -run=NONE -fuzz=FuzzDecodeBatch -fuzztime=20s ./internal/mutate
func FuzzDecodeBatch(f *testing.F) {
	g := fig1Fragment()
	// The batches TestBatchCodecRoundTrip encodes: every record kind.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		f.Add(EncodeBatch(randBatch(g, rng, 1+rng.Intn(12))))
	}
	// The insert, relabel and delete shapes of the benchmark's write mix.
	for _, script := range writeMixScripts[:3] {
		b, err := ParseScript(script, g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeBatch(b))
	}
	// +0 and then -0 in one batch: distinct labels that must each re-encode
	// as themselves.
	b, err := ParseScript(`addnode; addedge 0 0.0 $0; addedge 0 -0.0 $0`, g)
	if err != nil {
		f.Fatal(err)
	}
	zeros := EncodeBatch(b)
	if !bytes.Contains(zeros, []byte{byte(ssd.KindFloat), 0, 0, 0, 0, 0, 0, 0, 0x80}) {
		f.Fatalf("the signed-zero seed % x holds no -0", zeros)
	}
	f.Add(zeros)
	want := canon(g)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if enc := EncodeBatch(b); !bytes.Equal(enc, data) {
			t.Fatalf("batch % x re-encodes as % x", data, enc)
		}
		checkBatch(t, g, want, b)
	})
}

// writeMixScripts are mutation scripts against fig1Fragment: first the
// insert, relabel and delete shapes of the benchmark's /mutate write mix,
// then the same shapes as a client may send them (trailing newlines,
// comments, the statements the mix never uses).
var writeMixScripts = []string{
	`addnode; addnode; addnode; addnode; addnode; addnode; addnode; addnode; addnode
addedge 0 Entry $0
addedge $0 Movie $1
addedge $1 Title $2
addedge $2 "Title 7" $3
addedge $1 Cast $4
addedge $4 1 $5
addedge $5 "Actor 7" $6
addedge $1 Director $7
addedge $7 "Director 7" $8
`,
	`relabel 3 "Casablanca" "Casablanca r"`,
	`deledge 0 Entry 1`,
	"relabel 3 \"Casablanca\" \"Casablanca \\\"r\\\"\"\n",
	"deledge 0 Entry 1\n",
	`// attach a year subtree and rename the director edge
addnode ; addnode
addedge 2 Year $0
addedge $0 1942 $1
relabel 2 Director "Directed By"
setoid $0 &y1
setroot 1`,
	`addnode; addedge 0 n $0; addedge $0 2.5 $0; addedge $0 true 0`,
	// Quoted labels holding the statement separator and the comment marker.
	`addnode; addedge 0 "http://x" $0 // a link
relabel 3 "Casablanca" "x:-y % -- //"; addedge $0 "a;b" 0`,
}

// FuzzParseScript feeds arbitrary text to the mutation script parser — the
// body of a /mutate request. ParseScript must never panic; a script it
// accepts must apply copy-on-write without panicking and without touching
// the base graph, and its batch must survive an encode/decode round trip
// unchanged.
//
//	go test -run=NONE -fuzz=FuzzParseScript -fuzztime=20s ./internal/mutate
func FuzzParseScript(f *testing.F) {
	g := fig1Fragment()
	for _, script := range writeMixScripts {
		f.Add(script)
	}
	want := canon(g)

	f.Fuzz(func(t *testing.T, script string) {
		b, err := ParseScript(script, g)
		if err != nil {
			return
		}
		checkBatch(t, g, want, b)
	})
}

// checkBatch is the fuzzers' shared oracle for an accepted batch against g
// (whose canonical form is want): the encode/decode round trip preserves
// it, and ApplyCOW returns either outcome without panicking and without
// changing g.
func checkBatch(t *testing.T, g *ssd.Graph, want string, b *Batch) {
	t.Helper()
	back, err := DecodeBatch(EncodeBatch(b))
	if err != nil {
		t.Fatalf("re-encoded batch does not decode: %v", err)
	}
	if back.BaseNodes() != b.BaseNodes() || !sameRecs(back.Recs(), b.Recs()) {
		t.Fatal("encode/decode round trip changed the batch")
	}
	ApplyCOW(g, b) // either outcome is fine; a panic fails the fuzzer
	if canon(g) != want {
		t.Fatal("ApplyCOW changed its input graph")
	}
}

// sameRecs compares records field by field, labels by their wire encoding:
// a NaN float label is not == to itself, but it round-trips bit for bit.
func sameRecs(a, b []Rec) bool {
	if len(a) != len(b) {
		return false
	}
	enc := func(r Rec) string {
		return string(ssd.AppendLabel(ssd.AppendLabel(nil, r.Label), r.Old))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Op != y.Op || x.From != y.From || x.To != y.To || x.OID != y.OID || enc(x) != enc(y) {
			return false
		}
	}
	return true
}

// FuzzReadFrameFrom feeds arbitrary bytes to the replication stream's frame
// reader. It must never panic, and every frame it accepts must re-encode
// through WriteFrameTo to exactly the bytes it consumed: one payload, one
// frame encoding.
//
//	go test -run=NONE -fuzz=FuzzReadFrameFrom -fuzztime=20s ./internal/mutate
func FuzzReadFrameFrom(f *testing.F) {
	var stream bytes.Buffer
	for _, p := range [][]byte{{}, {1}, bytes.Repeat([]byte{7}, 300), EncodeBatch(randBatch(fig1Fragment(), rand.New(rand.NewSource(5)), 4))} {
		if err := WriteFrameTo(&stream, p); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), stream.Bytes()...))
	}
	f.Add(append(binary.AppendUvarint(nil, 1<<30), 0, 0, 0, 0, 42))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReader(src)
		pos := 0
		for {
			payload, err := ReadFrameFrom(r)
			if err != nil {
				return
			}
			end := len(data) - src.Len() - r.Buffered()
			consumed := data[pos:end]
			pos = end
			var re bytes.Buffer
			if err := WriteFrameTo(&re, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(consumed, re.Bytes()) {
				t.Fatalf("frame % x re-encodes as % x", consumed, re.Bytes())
			}
		}
	})
}
