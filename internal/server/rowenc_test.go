package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ssd"
)

// jsonRowLine is the reference: the line encoding/json writes for one row.
func jsonRowLine(t testing.TB, names, vals []string) []byte {
	t.Helper()
	row := make(map[string]string, len(names))
	for i, n := range names {
		row[n] = vals[i]
	}
	b, err := json.Marshal(struct {
		Row map[string]string `json:"row"`
	}{row})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func appendedRowLine(names, vals []string) []byte {
	e := newRowEncoder(names)
	for _, stale := range []bool{true, false} { // reuse: begin forgets the previous line
		e.begin()
		for k, i := range e.cols {
			if stale {
				e.str(k, "stale "+vals[i])
			} else {
				e.str(k, vals[i])
			}
		}
		e.end()
	}
	return e.buf
}

// TestRowLineMatchesEncodingJSON: the appended row line is byte-identical to
// encoding/json's for every escaping class and column count.
func TestRowLineMatchesEncodingJSON(t *testing.T) {
	nasty := []string{
		"", "plain", `q"uo\te`, "ctl\x00\x01\x07\b\f\n\r\t\x1f\x7f", "<script>&amp;</script>",
		"sep\u2028and\u2029", "bad\xff\xfeutf8\xc3", "\xe2\x80", "héllo wörld ☃ 𝄞", "\ufffd real",
	}
	for _, v := range nasty {
		for _, names := range [][]string{
			{"node"}, {v}, {"T", "M", "A"}, {"b", "%L", "@P", "a"}, {v, "z" + v},
		} {
			vals := make([]string, len(names))
			for i := range vals {
				vals[i] = v + strconv.Itoa(i)
			}
			vals[0] = v
			if got, want := appendedRowLine(names, vals), jsonRowLine(t, names, vals); !bytes.Equal(got, want) {
				t.Errorf("names %q vals %q:\n got %s want %s", names, vals, got, want)
			}
		}
	}
	if got, want := appendedRowLine(nil, nil), jsonRowLine(t, nil, nil); !bytes.Equal(got, want) {
		t.Errorf("no columns: got %s want %s", got, want)
	}
	// A node id column prints as the decimal string Scan would have produced.
	e := newRowEncoder([]string{"node"})
	for _, n := range []ssd.NodeID{0, 7, 230999, 1<<31 - 1} {
		e.begin()
		e.id(0, n)
		if got, want := e.end(), jsonRowLine(t, []string{"node"}, []string{strconv.Itoa(int(n))}); !bytes.Equal(got, want) {
			t.Errorf("id %d: got %s want %s", n, got, want)
		}
	}
}

func FuzzRowLine(f *testing.F) {
	f.Add("node", "42", "T", `"Casablanca"`, uint8(1))
	f.Add("a<b", "x\u2028y", "a<b", "\xff\x00", uint8(2))
	f.Add("", "", "\\", "\"", uint8(3))
	f.Add("k", "v", "k2", "v2", uint8(0))
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2 string, n uint8) {
		names := []string{k1, "k2" + k1 + k2, "k3" + k1}[:n%4] // distinct, as result columns are
		vals := []string{v1, v2, v2 + v1}[:n%4]
		if got, want := appendedRowLine(names, vals), jsonRowLine(t, names, vals); !bytes.Equal(got, want) {
			t.Fatalf("names %q vals %q:\n got %s want %s", names, vals, got, want)
		}
	})
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the server's current output")

// TestQueryGoldenBodies pins whole /query response bodies — every row line
// and the terminal status line — for the three read statements bench/ssdload
// sends, a render=tree request and a statement with label and path columns.
// The goldens were written by the json.Encoder implementation of the row
// lines; the row encoder must reproduce them byte for byte.
func TestQueryGoldenBodies(t *testing.T) {
	_, ts, _ := newTestServer(t, 120)
	for _, c := range []struct{ name, body string }{
		{"sel", `{"query":"select {T: T} from DB.Entry.TV-Show S, S.Title T, S.Episode E where E > $lo","params":{"lo":1950000}}`},
		{"path", `{"query":"path: Entry.Movie.References.Movie.Director._"}`},
		{"wide", `{"query":"select {Title: T} from DB.Entry.Movie M, M.Title T, M.Cast._* A where A = $who","params":{"who":"\"Allen\""}}`},
		{"tree", `{"query":"select T from DB.Entry.Movie M, M.Title T, M.Director D","render":"tree","limit":25}`},
		{"labelpath", `{"query":"select {L: %L} from DB.Entry.Movie M, M.%L X, X.@P Y where Y = \"Allen\"","limit":40}`},
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v: %s", c.name, resp.StatusCode, err, got)
		}
		if bytes.Count(got, []byte("\n")) < 3 {
			t.Fatalf("%s: golden would pin fewer than two rows: %s", c.name, got)
		}
		path := filepath.Join("testdata", c.name+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response body differs from %s (%d vs %d bytes)", c.name, path, len(got), len(want))
		}
	}
}
