package pathexpr

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ssd"
)

// Arc is one predicate-labeled NFA transition.
type Arc struct {
	Pred Pred
	To   int
}

// Automaton is a compiled path expression: a Thompson NFA over the predicate
// alphabet, with per-state epsilon closures precomputed and a lazily built
// subset (DFA) cache used by Eval. Both the plain NFA product evaluation
// (EvalNFA) and the cached-subset evaluation (Eval) are exposed because
// experiment E3 ablates one against the other.
type Automaton struct {
	arcs    [][]Arc
	start   int
	accept  int
	closure [][]int // epsilon closure per state, sorted

	// Lazy DFA: subsets of NFA states, discovered during evaluation.
	dstates map[string]int // subset key → dstate id
	dsets   [][]int        // dstate id → sorted NFA state set
	daccept []bool         // dstate id → contains accept state
	dtrans  []map[ssd.Label]int
	dstart  int // dstate of the epsilon-closed start set, interned up front
}

// Compile translates a path expression into an Automaton.
func Compile(e Expr) *Automaton {
	b := &builder{}
	s, a := b.build(e)
	au := &Automaton{arcs: b.arcs, start: s, accept: a}
	au.computeClosures(b.eps)
	au.resetDFA()
	return au
}

// MustCompile parses and compiles src, panicking on error.
func MustCompile(src string) *Automaton {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return Compile(e)
}

type builder struct {
	arcs [][]Arc
	eps  [][]int
}

func (b *builder) state() int {
	b.arcs = append(b.arcs, nil)
	b.eps = append(b.eps, nil)
	return len(b.arcs) - 1
}

func (b *builder) arc(from int, p Pred, to int) {
	b.arcs[from] = append(b.arcs[from], Arc{p, to})
}

func (b *builder) epsilon(from, to int) {
	b.eps[from] = append(b.eps[from], to)
}

// build returns (start, accept) for e, Thompson-style.
func (b *builder) build(e Expr) (int, int) {
	switch t := e.(type) {
	case Atom:
		s, a := b.state(), b.state()
		b.arc(s, t.Pred, a)
		return s, a
	case Seq:
		if len(t.Parts) == 0 {
			s := b.state()
			return s, s
		}
		s, a := b.build(t.Parts[0])
		for _, part := range t.Parts[1:] {
			s2, a2 := b.build(part)
			b.epsilon(a, s2)
			a = a2
		}
		return s, a
	case Alt:
		s, a := b.state(), b.state()
		for _, alt := range t.Alts {
			s2, a2 := b.build(alt)
			b.epsilon(s, s2)
			b.epsilon(a2, a)
		}
		return s, a
	case Star:
		s, a := b.state(), b.state()
		s2, a2 := b.build(t.Sub)
		b.epsilon(s, s2)
		b.epsilon(s, a)
		b.epsilon(a2, s2)
		b.epsilon(a2, a)
		return s, a
	case Plus:
		s, a := b.build(t.Sub)
		s2, a2 := b.state(), b.state()
		b.epsilon(s2, s)
		b.epsilon(a, a2)
		b.epsilon(a, s)
		return s2, a2
	case Opt:
		s, a := b.state(), b.state()
		s2, a2 := b.build(t.Sub)
		b.epsilon(s, s2)
		b.epsilon(a2, a)
		b.epsilon(s, a)
		return s, a
	default:
		panic("pathexpr: unknown Expr type")
	}
}

func (au *Automaton) computeClosures(eps [][]int) {
	n := len(au.arcs)
	au.closure = make([][]int, n)
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		stack := []int{s}
		seen[s] = true
		var cl []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cl = append(cl, v)
			for _, w := range eps[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Ints(cl)
		au.closure[s] = cl
	}
}

func (au *Automaton) resetDFA() {
	au.dstates = make(map[string]int)
	au.dsets = nil
	au.daccept = nil
	au.dtrans = nil
	au.dstart = au.dstateOf(au.closure[au.start])
}

// NumStates returns the number of NFA states.
func (au *Automaton) NumStates() int { return len(au.arcs) }

// Start returns the NFA start state.
func (au *Automaton) Start() int { return au.start }

// Accept returns the unique NFA accept state.
func (au *Automaton) Accept() int { return au.accept }

// Arcs returns the predicate transitions out of state s. Callers must not
// mutate the result.
func (au *Automaton) Arcs(s int) []Arc { return au.arcs[s] }

// Closure returns the epsilon closure of s, sorted. Callers must not mutate
// the result.
func (au *Automaton) Closure(s int) []int { return au.closure[s] }

// StepSet advances a sorted, epsilon-closed state set over one edge label,
// returning the epsilon-closed successor set (sorted, possibly empty).
func (au *Automaton) StepSet(set []int, l ssd.Label) []int {
	var out []int
	seen := map[int]bool{}
	for _, s := range set {
		for _, arc := range au.arcs[s] {
			if !arc.Pred.Match(l) {
				continue
			}
			for _, c := range au.closure[arc.To] {
				if !seen[c] {
					seen[c] = true
					out = append(out, c)
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// Accepting reports whether a state set contains the accept state.
func (au *Automaton) Accepting(set []int) bool {
	for _, s := range set {
		if s == au.accept {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Evaluation over graphs

// EvalNFA runs the naive product-graph BFS: it explores (node, NFA state)
// pairs and returns the sorted set of nodes reachable from start over a
// matching path. This is the paper's basic strategy — "model the graph as a
// relational database" of edges and search — and the E3 baseline.
func (au *Automaton) EvalNFA(g ssd.GraphStore, start ssd.NodeID) []ssd.NodeID {
	n := g.NumNodes()
	S := len(au.arcs)
	visited := make([]bool, n*S)
	type item struct {
		node  ssd.NodeID
		state int
	}
	var queue []item
	push := func(node ssd.NodeID, state int) {
		for _, c := range au.closure[state] {
			idx := int(node)*S + c
			if !visited[idx] {
				visited[idx] = true
				queue = append(queue, item{node, c})
			}
		}
	}
	push(start, au.start)
	resultSet := make(map[ssd.NodeID]bool)
	for len(queue) > 0 {
		it := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if it.state == au.accept {
			resultSet[it.node] = true
		}
		for _, arc := range au.arcs[it.state] {
			for _, e := range g.Out(it.node) {
				if arc.Pred.Match(e.Label) {
					push(e.To, arc.To)
				}
			}
		}
	}
	return sortedNodes(resultSet)
}

// Eval runs the lazy-subset (on-the-fly DFA) product search — node × subset
// pairs, with per-subset transition results memoized by concrete label — and
// returns the sorted, never-nil set of accepting nodes. It is a Traversal
// drained to exhaustion: one product search serves both the materialized
// and the streaming face.
func (au *Automaton) Eval(g ssd.GraphStore, start ssd.NodeID) []ssd.NodeID {
	t := au.NewTraversal(g)
	t.Reset(start)
	out := []ssd.NodeID{}
	for n, ok := t.Next(); ok; n, ok = t.Next() {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// dstateOf interns a sorted NFA state set as a dstate id.
func (au *Automaton) dstateOf(set []int) int {
	key := setKey(set)
	if id, ok := au.dstates[key]; ok {
		return id
	}
	id := len(au.dsets)
	au.dstates[key] = id
	au.dsets = append(au.dsets, append([]int(nil), set...))
	au.daccept = append(au.daccept, au.Accepting(set))
	au.dtrans = append(au.dtrans, make(map[ssd.Label]int))
	return id
}

// dstep returns the dstate reached from d over label l, or -1 for the empty
// set. Transitions are memoized per (dstate, label).
func (au *Automaton) dstep(d int, l ssd.Label) int {
	if nd, ok := au.dtrans[d][l]; ok {
		return nd
	}
	next := au.StepSet(au.dsets[d], l)
	nd := -1
	if len(next) > 0 {
		nd = au.dstateOf(next)
	}
	au.dtrans[d][l] = nd
	return nd
}

func setKey(set []int) string {
	var b strings.Builder
	for i, s := range set {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(s))
	}
	return b.String()
}

func sortedNodes(set map[ssd.NodeID]bool) []ssd.NodeID {
	out := make([]ssd.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type prodItem struct {
	node   ssd.NodeID
	dstate int
}

type prodCrumb struct {
	prev  prodItem
	label ssd.Label
	has   bool
}

// EvalWithPaths returns, for every result node, one witness path of labels
// (a shortest one in edge count). It uses BFS so the witness is minimal.
func (au *Automaton) EvalWithPaths(g ssd.GraphStore, start ssd.NodeID) map[ssd.NodeID][]ssd.Label {
	d0 := au.dstart
	trail := map[prodItem]prodCrumb{}
	first := prodItem{start, d0}
	trail[first] = prodCrumb{}
	queue := []prodItem{first}
	results := map[ssd.NodeID][]ssd.Label{}
	for head := 0; head < len(queue); head++ {
		it := queue[head]
		if au.daccept[it.dstate] {
			if _, done := results[it.node]; !done {
				results[it.node] = unwind(trail, it)
			}
		}
		for _, e := range g.Out(it.node) {
			nd := au.dstep(it.dstate, e.Label)
			if nd < 0 {
				continue
			}
			ni := prodItem{e.To, nd}
			if _, seen := trail[ni]; !seen {
				trail[ni] = prodCrumb{prev: it, label: e.Label, has: true}
				queue = append(queue, ni)
			}
		}
	}
	return results
}

func unwind(trail map[prodItem]prodCrumb, it prodItem) []ssd.Label {
	var rev []ssd.Label
	for {
		c := trail[it]
		if !c.has {
			break
		}
		rev = append(rev, c.label)
		it = c.prev
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// NewAutomaton assembles an Automaton from explicit transition tables —
// used by schema pruning (§5, [20]), which builds the product of a query
// automaton with a schema graph and needs to rematerialize it as an
// Automaton. arcs and eps must have equal length; start and accept index
// into them.
func NewAutomaton(arcs [][]Arc, eps [][]int, start, accept int) *Automaton {
	au := &Automaton{arcs: arcs, start: start, accept: accept}
	au.computeClosures(eps)
	au.resetDFA()
	return au
}
