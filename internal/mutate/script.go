package mutate

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ssd"
)

// ParseScript parses the ssdq mutation script format into a batch against
// base. Statements are separated by newlines or semicolons; `//` starts a
// line comment; inside a quoted string neither a semicolon nor `//` counts.
// The statements mirror the record types:
//
//	addnode                       allocate a node, referable as $0, $1, …
//	addedge <node> <label> <node>
//	deledge <node> <label> <node>
//	relabel <node> <old> <new>
//	setoid  <node> <string>
//	setroot <node>
//
// A <node> is a numeric id of the base graph or $k, the k-th node this
// script allocated. A <label> is a bare symbol, a quoted string, an int, a
// float, true/false, or &id for an OID label.
func ParseScript(src string, base *ssd.Graph) (*Batch, error) {
	b := NewBatch(base)
	var news []ssd.NodeID
	for i, stmt := range splitStatements(src) {
		if err := parseStatement(b, stmt, &news); err != nil {
			return nil, fmt.Errorf("mutate: statement %d: %w", i+1, err)
		}
	}
	return b, nil
}

// scriptArity is each statement's argument count.
var scriptArity = map[string]int{"addnode": 0, "addedge": 3, "deledge": 3, "relabel": 3, "setoid": 2, "setroot": 1}

// parseStatement adds one statement to b; news holds the nodes the script
// has allocated so far.
func parseStatement(b *Batch, stmt string, news *[]ssd.NodeID) error {
	fields, err := tokenize(stmt)
	if err != nil || len(fields) == 0 {
		return err
	}
	verb := strings.ToLower(fields[0])
	arity, ok := scriptArity[verb]
	if !ok {
		return fmt.Errorf("unknown statement %q", verb)
	}
	if len(fields)-1 != arity {
		return fmt.Errorf("%s takes %d arguments, got %d", verb, arity, len(fields)-1)
	}
	if verb == "addnode" {
		*news = append(*news, b.AddNode())
		return nil
	}
	from, err := parseNodeRef(fields[1], *news)
	if err != nil {
		return err
	}
	switch verb {
	case "addedge", "deledge":
		to, err := parseNodeRef(fields[3], *news)
		if err != nil {
			return err
		}
		if verb == "addedge" {
			return b.AddEdge(from, parseLabel(fields[2]), to)
		}
		return b.DeleteEdge(from, parseLabel(fields[2]), to)
	case "relabel":
		return b.Relabel(from, parseLabel(fields[2]), parseLabel(fields[3]))
	case "setoid":
		return b.SetOID(from, strings.TrimPrefix(fields[2], "\""))
	default:
		return b.SetRoot(from)
	}
}

// splitStatements cuts src at newlines and semicolons and drops `//`
// comments, skipping over quoted strings the way tokenize reads them: a
// quote opens a string only where a field starts, and the string runs to
// its closing quote (backslash escapes respected) or the end of the line.
func splitStatements(src string) []string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		start, inField := 0, false
		for i := 0; i < len(line); i++ {
			switch c := line[i]; {
			case c == ';':
				out = append(out, strings.TrimSpace(line[start:i]))
				start, inField = i+1, false
			case strings.HasPrefix(line[i:], "//"):
				line = line[:i]
			case c == ' ' || c == '\t' || c == '\r':
				inField = false
			case c == '"' && !inField:
				for i++; i < len(line) && line[i] != '"'; i++ {
					if line[i] == '\\' {
						i++
					}
				}
			default:
				inField = true
			}
		}
		out = append(out, strings.TrimSpace(line[start:]))
	}
	return out
}

// tokenize splits a statement on whitespace, keeping double-quoted strings
// (with Go escape syntax) as single unquoted tokens tagged by a leading
// quote so parseLabel can tell "42" from 42.
func tokenize(stmt string) ([]string, error) {
	var out []string
	for stmt != "" {
		stmt = strings.TrimLeft(stmt, " \t\r")
		if stmt == "" {
			break
		}
		if stmt[0] == '"' {
			end := 1
			for end < len(stmt) {
				if stmt[end] == '\\' {
					end += 2
					continue
				}
				if stmt[end] == '"' {
					break
				}
				end++
			}
			if end >= len(stmt) {
				return nil, fmt.Errorf("unterminated string %s", stmt)
			}
			s, err := strconv.Unquote(stmt[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad string %s: %v", stmt[:end+1], err)
			}
			out = append(out, "\""+s)
			stmt = stmt[end+1:]
			continue
		}
		end := strings.IndexAny(stmt, " \t\r")
		if end < 0 {
			end = len(stmt)
		}
		out = append(out, stmt[:end])
		stmt = stmt[end:]
	}
	return out, nil
}

func parseNodeRef(tok string, news []ssd.NodeID) (ssd.NodeID, error) {
	if strings.HasPrefix(tok, "$") {
		k, err := strconv.Atoi(tok[1:])
		if err != nil || k < 0 || k >= len(news) {
			return ssd.InvalidNode, fmt.Errorf("bad script-node reference %q (script has %d)", tok, len(news))
		}
		return news[k], nil
	}
	n, err := strconv.Atoi(tok)
	if err != nil {
		return ssd.InvalidNode, fmt.Errorf("bad node %q", tok)
	}
	return ssd.NodeID(n), nil
}

func parseLabel(tok string) ssd.Label {
	if strings.HasPrefix(tok, "\"") {
		return ssd.Str(tok[1:])
	}
	if strings.HasPrefix(tok, "&") {
		return ssd.OID(tok[1:])
	}
	switch tok {
	case "true":
		return ssd.Bool(true)
	case "false":
		return ssd.Bool(false)
	}
	if isNumber(tok) {
		if v, err := strconv.ParseInt(tok, 10, 64); err == nil {
			return ssd.Int(v)
		}
		if f, err := strconv.ParseFloat(tok, 64); err == nil {
			return ssd.Float(f) // an integer beyond int64
		}
	}
	return ssd.Sym(tok)
}

var numberSyntax = ssd.Syntax{Prefix: "mutate"}

// isNumber reports whether the shared scanner reads tok as one number
// token, so NaN, Inf and 0x10 stay symbols here as in every other
// front-end.
func isNumber(tok string) bool {
	if tok == "" || tok[0] != '-' && (tok[0] < '0' || tok[0] > '9') {
		return false
	}
	sc := ssd.NewScanner(&numberSyntax, tok)
	if sc.Tok != ssd.TokInt && sc.Tok != ssd.TokFloat {
		return false
	}
	sc.Next()
	return sc.Tok == ssd.TokEOF
}
