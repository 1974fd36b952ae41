// Package schema implements graph schemas for semistructured data (§5 of
// the paper): a schema is itself an edge-labeled graph whose edges carry
// predicates, and a database conforms to a schema iff there is a simulation
// of the database in the schema [8]. The package also implements the two
// applications §5 highlights: schema-based query optimization [20]
// (pruning a path-expression automaton against a schema, experiment E8) and
// structure discovery (inferring a schema from data).
package schema

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bisim"
	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

// Schema is a rooted graph whose edges are interpreted as predicates on
// data labels. It reuses the ssd graph and text syntax: symbol edges whose
// names collide with predicate keywords (`_`, isint, isstring, ...) are
// interpreted as those predicates; every other label matches exactly.
// Richer predicates can be attached programmatically with SetPred.
type Schema struct {
	G *ssd.Graph
	// preds overrides the default label interpretation on specific edges,
	// keyed by (from, edge index).
	preds map[edgeKey]pathexpr.Pred
}

type edgeKey struct {
	from ssd.NodeID
	idx  int
}

// New wraps a rooted graph as a schema.
func New(g *ssd.Graph) *Schema {
	return &Schema{G: g, preds: make(map[edgeKey]pathexpr.Pred)}
}

// Parse parses a schema in the ssd text syntax, e.g.
//
//	{Entry: #e{Movie: {Title: isstring, Cast: {_: isstring},
//	                   References: #e}}}
func Parse(src string) (*Schema, error) {
	g, err := ssd.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	return New(g), nil
}

// MustParse is Parse but panics on error.
func MustParse(src string) *Schema {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

// SetPred attaches an explicit predicate to the idx-th edge out of from,
// overriding the label interpretation.
func (s *Schema) SetPred(from ssd.NodeID, idx int, p pathexpr.Pred) {
	s.preds[edgeKey{from, idx}] = p
}

// PredOf returns the predicate of the idx-th edge out of from.
func (s *Schema) PredOf(from ssd.NodeID, idx int) pathexpr.Pred {
	if p, ok := s.preds[edgeKey{from, idx}]; ok {
		return p
	}
	return InterpretLabel(s.G.Out(from)[idx].Label)
}

// InterpretLabel maps a schema edge label to its default predicate: the
// wildcard `_`, the type tests, a `like:pat` symbol, or exact match.
func InterpretLabel(l ssd.Label) pathexpr.Pred {
	if sym, ok := l.Symbol(); ok {
		switch sym {
		case "_":
			return pathexpr.AnyPred{}
		case "isint":
			return pathexpr.TypePred{Kind: ssd.KindInt}
		case "isfloat":
			return pathexpr.TypePred{Kind: ssd.KindFloat}
		case "isstring":
			return pathexpr.TypePred{Kind: ssd.KindString}
		case "issymbol":
			return pathexpr.TypePred{Kind: ssd.KindSymbol}
		case "isbool":
			return pathexpr.TypePred{Kind: ssd.KindBool}
		case "isdata":
			return pathexpr.TypePred{IsData: true}
		}
		if pat, ok2 := strings.CutPrefix(sym, "like:"); ok2 {
			return pathexpr.LikePred{Pattern: pat}
		}
	}
	return pathexpr.ExactPred{L: l}
}

// Conforms reports whether the database rooted at data.Root() conforms to
// the schema: there is a simulation of the data in the schema graph whose
// label matching is predicate satisfaction [8].
func (s *Schema) Conforms(data *ssd.Graph) bool {
	return s.ConformsAt(data, data.Root())
}

// ConformsAt checks conformance of the value rooted at a specific node.
func (s *Schema) ConformsAt(data *ssd.Graph, root ssd.NodeID) bool {
	// bisim.Simulation matches labels, not edges, so exact per-edge pred
	// overrides are folded into a label-level match: a data label matches a
	// schema label if the interpreted predicate accepts it OR some override
	// on an edge with that label accepts it. Overrides keyed by edges with
	// duplicate labels are conservatively unioned.
	overridesByLabel := make(map[ssd.Label][]pathexpr.Pred)
	for k, p := range s.preds {
		l := s.G.Out(k.from)[k.idx].Label
		overridesByLabel[l] = append(overridesByLabel[l], p)
	}
	match := func(d, pattern ssd.Label) bool {
		if ps, ok := overridesByLabel[pattern]; ok {
			for _, p := range ps {
				if p.Match(d) {
					return true
				}
			}
			return false
		}
		return InterpretLabel(pattern).Match(d)
	}
	return bisim.Simulates(data, root, s.G, s.G.Root(), match)
}

// Classify returns, for every data node, the sorted list of schema nodes
// that simulate it — the "partial answers"/browsing use of schemas §5
// mentions: a node's schema classes describe what is known about it.
func (s *Schema) Classify(data *ssd.Graph) map[ssd.NodeID][]ssd.NodeID {
	match := func(d, pattern ssd.Label) bool { return InterpretLabel(pattern).Match(d) }
	rel := bisim.Simulation(data, s.G, match)
	out := make(map[ssd.NodeID][]ssd.NodeID, data.NumNodes())
	for v := 0; v < data.NumNodes(); v++ {
		var classes []ssd.NodeID
		for u := 0; u < s.G.NumNodes(); u++ {
			if rel.Has(ssd.NodeID(v), ssd.NodeID(u)) {
				classes = append(classes, ssd.NodeID(u))
			}
		}
		out[ssd.NodeID(v)] = classes
	}
	return out
}

// ---------------------------------------------------------------------------
// Schema-based query pruning (§5, [20]; experiment E8)

// Prune intersects a compiled path expression with the schema: the result
// automaton's states are (query state, schema node) pairs, and its arcs
// conjoin the query predicate with the schema edge predicate. States that
// cannot reach acceptance are trimmed. On data conforming to the schema the
// pruned automaton returns the same results while exploring fewer product
// pairs — and a query the schema rules out entirely becomes the empty
// automaton without touching the data.
func (s *Schema) Prune(au *pathexpr.Automaton) *pathexpr.Automaton {
	type pstate struct {
		q int        // query NFA state
		u ssd.NodeID // schema node
	}
	id := map[pstate]int{}
	var states []pstate
	intern := func(ps pstate) int {
		if i, ok := id[ps]; ok {
			return i
		}
		i := len(states)
		id[ps] = i
		states = append(states, ps)
		return i
	}

	// Forward-reachable product construction. Query epsilon moves don't
	// consume schema edges, so the product works over epsilon-closed query
	// states: arcs out of (q,u) come from every q' in closure(q).
	start := intern(pstate{au.Start(), s.G.Root()})
	var arcs []parc
	accepting := map[int]bool{}
	for head := 0; head < len(states); head++ {
		ps := states[head]
		for _, q := range au.Closure(ps.q) {
			if q == au.Accept() {
				accepting[head] = true
			}
			for _, arc := range au.Arcs(q) {
				for i, se := range s.G.Out(ps.u) {
					spred := s.PredOf(ps.u, i)
					// Satisfiability check for the common exact-label case:
					// skip arcs that can never fire.
					if ep, ok := spred.(pathexpr.ExactPred); ok && !arc.Pred.Match(ep.L) {
						// The schema edge admits exactly one label and the
						// query rejects it.
						continue
					}
					to := intern(pstate{arc.To, se.To})
					arcs = append(arcs, parc{head, pathexpr.AndPred{A: arc.Pred, B: spred}, to})
				}
			}
		}
	}

	// Trim: keep only states co-reachable from accepting ones.
	keep := coReachable(len(states), arcs, accepting)
	if !keep[start] {
		return emptyAutomaton()
	}
	remap := make([]int, len(states))
	n := 0
	for i := range states {
		if keep[i] {
			remap[i] = n
			n++
		} else {
			remap[i] = -1
		}
	}
	outArcs := make([][]pathexpr.Arc, n+1) // +1 for the unified accept state
	outEps := make([][]int, n+1)
	acceptState := n
	for _, a := range arcs {
		if remap[a.from] < 0 || remap[a.to] < 0 {
			continue
		}
		outArcs[remap[a.from]] = append(outArcs[remap[a.from]], pathexpr.Arc{Pred: a.pred, To: remap[a.to]})
	}
	for i := range states {
		if keep[i] && accepting[i] {
			outEps[remap[i]] = append(outEps[remap[i]], acceptState)
		}
	}
	return pathexpr.NewAutomaton(outArcs, outEps, remap[start], acceptState)
}

// parc is a product-automaton arc under construction in Prune.
type parc struct {
	from int
	pred pathexpr.Pred
	to   int
}

func coReachable(n int, arcs []parc, accepting map[int]bool) []bool {
	rev := make([][]int, n)
	for _, a := range arcs {
		rev[a.to] = append(rev[a.to], a.from)
	}
	keep := make([]bool, n)
	var stack []int
	for s := range accepting {
		if !keep[s] {
			keep[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range rev[v] {
			if !keep[w] {
				keep[w] = true
				stack = append(stack, w)
			}
		}
	}
	return keep
}

func emptyAutomaton() *pathexpr.Automaton {
	// Two states, no arcs: matches nothing.
	return pathexpr.NewAutomaton(make([][]pathexpr.Arc, 2), make([][]int, 2), 0, 1)
}

// ---------------------------------------------------------------------------
// Structure discovery (§5 "to impose (or to discover) some form of
// structure")

// Infer extracts a schema from data: base-data edge labels are generalized
// to type tests first, and the generalized graph is then quotiented by
// bisimilarity. Generalizing first lets structurally identical records with
// different values collapse into one schema node, so inferred schemas stay
// compact even when every string in the data is distinct. The result is a
// schema the data is guaranteed to conform to, in the spirit of [8]'s
// approximation schemas.
func Infer(data *ssd.Graph) *Schema {
	gen := ssd.NewWithCapacity(data.NumNodes())
	if data.NumNodes() > 1 {
		gen.AddNodes(data.NumNodes() - 1)
	}
	for v := 0; v < data.NumNodes(); v++ {
		for _, e := range data.Out(ssd.NodeID(v)) {
			gen.AddEdge(ssd.NodeID(v), generalize(e.Label), e.To)
		}
	}
	gen.SetRoot(data.Root())
	return New(bisim.Canonicalize(gen))
}

func generalize(l ssd.Label) ssd.Label {
	switch l.Kind() {
	case ssd.KindInt:
		return ssd.Sym("isint")
	case ssd.KindFloat:
		return ssd.Sym("isfloat")
	case ssd.KindString:
		return ssd.Sym("isstring")
	case ssd.KindBool:
		return ssd.Sym("isbool")
	default:
		return l
	}
}

// String renders the schema in the ssd text syntax.
func (s *Schema) String() string { return ssd.FormatRoot(s.G) }

// Size returns (nodes, edges) of the schema graph.
func (s *Schema) Size() (int, int) { return s.G.NumNodes(), s.G.NumEdges() }

// Labels returns the distinct schema edge labels, sorted — a quick look at
// what the schema permits.
func (s *Schema) Labels() []ssd.Label {
	ls := s.G.AllLabels()
	sort.Slice(ls, func(i, j int) bool { return ls[i].Less(ls[j]) })
	return ls
}
