package mutate

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// FuzzDecodeBatch feeds arbitrary bytes to the batch decoder — the bytes a
// WAL frame or a replication stream hands it. DecodeBatch must never panic;
// a batch it accepts must survive an encode/decode round trip unchanged, and
// applying it copy-on-write must return an error or a result without
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
	for _, script := range []string{
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
	} {
		b, err := ParseScript(script, g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeBatch(b))
	}
	want := canon(g)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
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
	})
}

// sameRecs compares records field by field, labels by their wire encoding:
// a NaN float label is not == to itself, but it round-trips bit for bit.
func sameRecs(a, b []Rec) bool {
	if len(a) != len(b) {
		return false
	}
	enc := func(r Rec) string {
		return string(storage.AppendLabel(storage.AppendLabel(nil, r.Label), r.Old))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Op != y.Op || x.From != y.From || x.To != y.To || x.OID != y.OID || enc(x) != enc(y) {
			return false
		}
	}
	return true
}
