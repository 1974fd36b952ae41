package server

import (
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/ssd"
)

// rowEncoder writes the {"row":{col:value,…}} NDJSON lines of one /query
// response by appending into a single reused buffer. Its contract is byte
// identity with what json.Encoder produces for
//
//	struct{ Row map[string]string `json:"row"` }
//
// — keys in sorted order, HTML-sensitive characters and U+2028/U+2029
// escaped, invalid UTF-8 replaced by U+FFFD — because clients and goldens
// were written against that encoder. Column names are distinct (the
// statement layer rejects or merges repeats), so sorting them is all the map
// did. Keys are sorted and quoted once per request; a row costs no allocation
// once the buffer has grown to the widest line.
type rowEncoder struct {
	keys [][]byte // `"name":` per column, in output order
	cols []int    // the result column each key reads
	buf  []byte
}

func newRowEncoder(names []string) *rowEncoder {
	e := &rowEncoder{cols: make([]int, len(names)), keys: make([][]byte, len(names))}
	for i := range e.cols {
		e.cols[i] = i
	}
	sort.Slice(e.cols, func(a, b int) bool { return names[e.cols[a]] < names[e.cols[b]] })
	for k, i := range e.cols {
		e.keys[k] = append(appendJSONString(nil, names[i]), ':')
	}
	return e
}

// begin starts a line; str and id then append the value of e.cols[k] for
// k = 0, 1, … in order; end terminates the line and returns it, valid until
// the next begin.
func (e *rowEncoder) begin() { e.buf = append(e.buf[:0], `{"row":{`...) }

func (e *rowEncoder) key(k int) {
	if k > 0 {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, e.keys[k]...)
}

func (e *rowEncoder) str(k int, v string) {
	e.key(k)
	e.buf = appendJSONString(e.buf, v)
}

// id appends a node id the way Rows.Scan formats one into a *string.
func (e *rowEncoder) id(k int, n ssd.NodeID) {
	e.key(k)
	e.buf = append(strconv.AppendInt(append(e.buf, '"'), int64(n), 10), '"')
}

func (e *rowEncoder) end() []byte {
	e.buf = append(e.buf, "}}\n"...)
	return e.buf
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal exactly as
// encoding/json does with HTML escaping on (the Encoder default).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // other control bytes, and < > &
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
