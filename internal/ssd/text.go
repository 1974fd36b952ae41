package ssd

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file implements a concrete text syntax for the model, in the style of
// the UnQL/OEM literals used throughout the paper:
//
//	{Entry: {Movie: {Title: "Casablanca",
//	                 Cast: {1: "Bogart", 2: "Bacall"},
//	                 Director: {...}}}}
//
// Grammar:
//
//	tree  := literal                    (sugar for {literal: {}})
//	       | tag? '{' [pair (',' pair)*] '}'
//	       | tag                        (reference to a tagged node)
//	pair  := label ':' tree | label     (bare label: edge to empty tree)
//	label := ident | string | int | float | true | false
//	tag   := '#' ident                  (local sharing/cycles)
//	       | '&' ident                  (persistent OEM object identity)
//
// Tags make sharing and cycles expressible: `#x{Next: #x}` is a one-node
// cycle. `&o7{...}` additionally records "o7" as the node's OEM oid.
// Line comments start with //.

// textSyntax is the ssd text syntax's share of the scanner; labelSyntax is
// what ParseLabel reads: literals only, no punctuation, no comments.
var (
	textSyntax  = &Syntax{Prefix: "ssd", Comment: "//", Punct: "{}:,#&"}
	labelSyntax = &Syntax{Prefix: "ssd"}
)

// Parse parses a complete database in text syntax and returns a fresh graph
// whose root is the parsed tree.
func Parse(src string) (*Graph, error) {
	g := New()
	n, err := parseInto(g, g.Root(), src)
	if err != nil {
		return nil, err
	}
	if n != g.Root() {
		g.SetRoot(n)
	}
	return g, nil
}

// MustParse is Parse but panics on error; intended for tests and examples.
func MustParse(src string) *Graph {
	g, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return g
}

// ParseTree parses one tree term into an existing graph and returns its node.
// Tags are scoped to the single call.
func ParseTree(g *Graph, src string) (NodeID, error) {
	return parseInto(g, g.AddNode(), src)
}

// parseInto parses src as exactly one tree term built at node into.
func parseInto(g *Graph, into NodeID, src string) (NodeID, error) {
	p := &parser{lex: NewScanner(textSyntax, src), g: g, tags: map[string]NodeID{}}
	n, err := p.parseTreeAt(into)
	if err != nil {
		return InvalidNode, err
	}
	if p.lex.Tok != TokEOF {
		return InvalidNode, p.lex.Errorf("trailing input %q", p.lex.Text)
	}
	if err := p.resolve(); err != nil {
		return InvalidNode, err
	}
	return n, nil
}

// ParseLabel parses a single label literal (symbol, string, number, bool):
// the scanner's literal rule and nothing else, so a parameter value like
// `a // b` is an error, not the symbol a.
func ParseLabel(src string) (Label, error) {
	lx := NewScanner(labelSyntax, src)
	l, err := lx.Label()
	if err != nil {
		return Label{}, err
	}
	if lx.Tok != TokEOF {
		return Label{}, lx.Errorf("trailing input after label %q", lx.Text)
	}
	return l, nil
}

// Format renders the subgraph reachable from n in the text syntax. Shared
// and cyclic nodes receive #tN tags; nodes with OEM oids are rendered with
// &oid tags. Edges are printed in sorted label order for determinism.
func Format(g *Graph, n NodeID) string {
	f := &formatter{g: g, shared: sharedNodes(g, n), tag: map[NodeID]string{}}
	var b strings.Builder
	f.write(&b, n)
	return b.String()
}

// FormatRoot renders the whole database from its root.
func FormatRoot(g *Graph) string { return Format(g, g.Root()) }

// sharedNodes returns nodes reachable from start that are reachable via more
// than one path or participate in a cycle — exactly the nodes needing tags.
func sharedNodes(g *Graph, start NodeID) map[NodeID]bool {
	visits := map[NodeID]int{}
	onStack := map[NodeID]bool{}
	shared := map[NodeID]bool{}
	type frame struct {
		n NodeID
		i int
	}
	visits[start]++
	stack := []frame{{start, 0}}
	onStack[start] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		es := g.Out(f.n)
		if f.i >= len(es) {
			onStack[f.n] = false
			stack = stack[:len(stack)-1]
			continue
		}
		to := es[f.i].To
		f.i++
		visits[to]++
		if onStack[to] {
			shared[to] = true // back edge: cycle
			continue
		}
		if visits[to] > 1 {
			shared[to] = true // cross edge: sharing
			continue
		}
		onStack[to] = true
		stack = append(stack, frame{to, 0})
	}
	return shared
}

type formatter struct {
	g      *Graph
	shared map[NodeID]bool
	tag    map[NodeID]string
	nextID int
}

func (f *formatter) write(b *strings.Builder, n NodeID) {
	if t, ok := f.tag[n]; ok {
		b.WriteString(t) // already emitted: reference
		return
	}
	prefix := ""
	if oid, ok := f.g.OIDOf(n); ok {
		prefix = "&" + oid
	} else if f.shared[n] {
		prefix = "#t" + strconv.Itoa(f.nextID)
		f.nextID++
	}
	if prefix != "" {
		f.tag[n] = prefix
		b.WriteString(prefix)
	}
	es := append([]Edge(nil), f.g.Out(n)...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Label != es[j].Label {
			return es[i].Label.Less(es[j].Label)
		}
		return es[i].To < es[j].To
	})
	b.WriteByte('{')
	for i, e := range es {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.Label.String())
		if f.plainLeaf(e.To) {
			continue // bare-label shorthand for edge to empty tree
		}
		b.WriteString(": ")
		f.write(b, e.To)
	}
	b.WriteByte('}')
}

// plainLeaf reports whether a node prints as nothing at all (empty tree with
// no tag), allowing the bare-label shorthand. Shared empty leaves print bare
// too: sharing an empty tree is semantically invisible, so no tag is needed.
func (f *formatter) plainLeaf(n NodeID) bool {
	if !f.g.IsLeaf(n) {
		return false
	}
	_, hasOID := f.g.OIDOf(n)
	return !hasOID
}

// ---------------------------------------------------------------------------
// Parser

type parser struct {
	lex  *Scanner
	g    *Graph
	tags map[string]NodeID   // defined tag → node
	fwd  map[string][]NodeID // forward-referenced tag → placeholder nodes
}

// parseTreeAt parses a tree term. If the term is a braces-node it is built
// into `into` and `into` is returned; references return the referenced node
// instead (leaving `into` unused).
func (p *parser) parseTreeAt(into NodeID) (NodeID, error) {
	lx := p.lex
	switch lx.Tok {
	case '#', '&':
		isOID := lx.Tok == '&'
		lx.Next()
		if lx.Tok != TokIdent && lx.Tok != TokInt {
			return InvalidNode, lx.Errorf("expected tag name after # or &")
		}
		name := lx.Text
		lx.Next()
		if lx.Tok == '{' { // definition
			if _, dup := p.tags[name]; dup {
				return InvalidNode, fmt.Errorf("ssd: duplicate tag %q", name)
			}
			p.tags[name] = into
			if isOID {
				p.g.SetOID(into, name)
			}
			return into, p.parseBraces(into)
		}
		if n, ok := p.tags[name]; ok {
			return n, nil
		}
		ph := p.g.AddNode()
		if p.fwd == nil {
			p.fwd = map[string][]NodeID{}
		}
		p.fwd[name] = append(p.fwd[name], ph)
		if isOID {
			p.g.SetOID(ph, name) // keep oid even if definition never appears
		}
		return ph, nil
	case '{':
		return into, p.parseBraces(into)
	case TokIdent, TokString, TokInt, TokFloat:
		l, err := lx.Label()
		if err != nil {
			return InvalidNode, err
		}
		p.g.AddLeaf(into, l) // literal tree: {lit: {}}
		return into, nil
	default:
		return InvalidNode, lx.Errorf("expected tree term")
	}
}

// parseBraces parses '{ pairs }' with the current token on the '{'.
func (p *parser) parseBraces(into NodeID) error {
	lx := p.lex
	lx.Next()
	if lx.Tok == '}' {
		lx.Next()
		return nil
	}
	for {
		l, err := lx.Label()
		if err != nil {
			return err
		}
		if lx.Tok == ':' {
			lx.Next()
			child, err := p.parseTreeAt(p.g.AddNode())
			if err != nil {
				return err
			}
			p.g.AddEdge(into, l, child)
		} else {
			p.g.AddLeaf(into, l) // bare label: edge to empty tree
		}
		switch lx.Tok {
		case ',':
			lx.Next()
		case '}':
			lx.Next()
			return nil
		default:
			return lx.Errorf("expected ',' or '}'")
		}
	}
}

// resolve rewires forward references to their defined nodes.
func (p *parser) resolve() error {
	if len(p.fwd) == 0 {
		return nil
	}
	redirect := map[NodeID]NodeID{}
	for name, phs := range p.fwd {
		target, ok := p.tags[name]
		if !ok {
			return fmt.Errorf("ssd: undefined tag reference #%s", name)
		}
		for _, ph := range phs {
			redirect[ph] = target
			delete(p.g.oid, ph)
		}
	}
	for _, es := range p.g.lists() {
		for i := range es {
			if t, ok := redirect[es[i].To]; ok {
				es[i].To = t
			}
		}
	}
	if t, ok := redirect[p.g.root]; ok {
		p.g.root = t
	}
	return nil
}
