package query

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/pathexpr"
	"repro/internal/ssd"
	"repro/internal/stats"
)

// This file is the query planner: the compile-once half of the
// planner/executor split. Planning resolves every tree, label and path
// variable to a fixed integer slot (so the executor binds into a flat array
// instead of cloning maps), orders the from-clause pattern atoms by
// estimated selectivity, chooses an access path per atom, and pushes each
// where-conjunct down to the earliest atom at which its variables are all
// bound. The executor (exec.go) interprets the resulting Plan with
// pull-based iterators.

// Access identifies the access path chosen for one pattern atom.
type Access int

// Access paths, in decreasing order of planner preference when applicable.
const (
	// AccessForward walks the graph forward from the atom's source node
	// through the lazy-DFA product traversal — always applicable.
	AccessForward Access = iota
	// AccessIndexSeek answers a root-anchored `_*.label` atom directly from
	// the label index's posting list, filtered to reachable sources.
	AccessIndexSeek
	// AccessIndexBackward starts from the posting list of the rarest label
	// in a root-anchored exact-label chain and verifies the prefix backward
	// against the label index's by-target views — "start from the most
	// selective atom".
	AccessIndexBackward
	// AccessGuide evaluates a root-anchored regex-only atom over the strong
	// DataGuide and unions the accepting extents.
	AccessGuide
)

func (a Access) String() string {
	switch a {
	case AccessIndexSeek:
		return "index-seek"
	case AccessIndexBackward:
		return "index-backward"
	case AccessGuide:
		return "dataguide"
	default:
		return "forward"
	}
}

// PlanOptions carries the optional auxiliary structures the planner may
// exploit. Nil fields simply disable the corresponding access paths; the
// planner then falls back to forward traversal (and estimates selectivity
// from a one-pass label count of the graph).
type PlanOptions struct {
	// Label enables index-seek and index-backward access and supplies exact
	// per-label occurrence counts for selectivity estimation.
	Label *index.LabelIndex
	// Guide enables dataguide-pruned access for root-anchored regex atoms.
	Guide *dataguide.Guide
	// Stats supplies maintained cardinality statistics (per-label counts,
	// distinct source counts, a numeric-value histogram). The cost model
	// prefers them over the label index for estimation: distinct counts
	// sharpen join fanout and the histogram prices range predicates.
	Stats *stats.Stats
}

// stepKind discriminates planStep.
type stepKind int

const (
	stepRegex stepKind = iota
	stepLabelVar
	stepPathVar
	stepParam // one edge whose label equals a $parameter's bound value
)

// planStep is one compiled path step. Steps carry a plan-unique id used by
// the executor to pool one reusable Traversal per regex step.
type planStep struct {
	id     int
	kind   stepKind
	au     *pathexpr.Automaton // stepRegex
	slot   int                 // label/path slot; -1 = bind nothing (wildcard)
	filter bool                // stepLabelVar: slot already bound → equality filter
}

// planAtom is one from-clause binding, compiled: slots resolved, access path
// chosen, and the where-conjuncts that become checkable after it runs.
type planAtom struct {
	b       Binding
	srcSlot int // tree slot of the source, or -1 for the DB root
	dstSlot int // tree slot the atom binds
	steps   []*planStep
	access  Access
	est     float64 // estimated result cardinality (explain only)
	dedup   bool    // atom binds no label/path vars → dedup destination nodes

	seekLabel ssd.Label           // AccessIndexSeek
	chain     []ssd.Label         // AccessIndexBackward: the exact-label chain
	chainIdx  int                 // AccessIndexBackward: seek position in chain
	guideAu   *pathexpr.Automaton // AccessGuide: whole-path automaton

	conds []cCond
}

// Plan is a compiled query: slot tables, ordered atoms, placed filters.
// A Plan is bound to the graph it was planned against (statistics and
// cached traversals refer to it) and must not outlive mutations of it.
type Plan struct {
	q *Query
	g ssd.GraphStore

	atoms []*planAtom

	treeSlot  map[string]int
	labelSlot map[string]int
	pathSlot  map[string]int
	paramSlot map[string]int
	treeName  []string
	labelName []string
	pathName  []string
	paramName []string

	preConds []cCond // variable-free conjuncts, checked once per execution
	nSteps   int
	// nExistsLocals counts scratch label slots used by label variables that
	// occur only inside exists-paths: they join repeated occurrences within
	// one walk but are never exported. The executor's label array is sized
	// len(labelName)+nExistsLocals.
	nExistsLocals int
	opts          PlanOptions
	reach         []bool // reachability from root; built only for index access

	// idleEx is the executor released by the last closed cursor, reused by
	// the next execution. Executors carry per-graph scratch (the node sets
	// of traversals and dedup, materialized scans), so a pooled plan
	// serving many executions pays for them once.
	// Plans are single-owner between checkout and checkin, which is what
	// makes the single cached slot safe; an unclosed cursor simply leaves
	// the slot empty and the next execution allocates fresh.
	idleEx *executor
}

// AtomInfo is the externally visible summary of one planned atom, for
// explain output and golden-plan tests.
type AtomInfo struct {
	Var    string
	Source string
	Access Access
	Est    float64
}

// Atoms returns the planned atoms in execution order.
func (p *Plan) Atoms() []AtomInfo {
	out := make([]AtomInfo, len(p.atoms))
	for i, a := range p.atoms {
		out[i] = AtomInfo{Var: a.b.Var, Source: a.b.Source, Access: a.access, Est: a.est}
	}
	return out
}

// Params returns the plan's parameter names in slot order. Executions must
// supply a value for every name.
func (p *Plan) Params() []string { return p.paramName }

// ---------------------------------------------------------------------------
// Planning

type planner struct {
	p      *Plan
	counts map[ssd.Label]int
	nodes  float64
	edges  float64
	// rootCounts holds exact per-label counts of the root's out-edges, built
	// lazily: the first step of a root-anchored atom has a frontier of
	// exactly one node, so the planner can price it exactly instead of
	// assuming uniformity.
	rootCounts map[ssd.Label]float64
}

// NewPlan compiles q against g. The query must already have passed Parse's
// static resolution (MustParse/Parse guarantee this); NewPlan re-checks only
// what it needs to stay panic-free.
func NewPlan(q *Query, g ssd.GraphStore, opts PlanOptions) (*Plan, error) {
	p := &Plan{
		q:         q,
		g:         g,
		treeSlot:  map[string]int{},
		labelSlot: map[string]int{},
		pathSlot:  map[string]int{},
		paramSlot: map[string]int{},
		opts:      opts,
	}
	pl := &planner{p: p}
	pl.gatherStats()

	// Parameters get reserved slots up front: executions bind values into a
	// flat array positionally, so re-running a cached plan never re-resolves
	// names.
	for _, name := range q.Params {
		p.paramSlot[name] = len(p.paramName)
		p.paramName = append(p.paramName, name)
	}

	// Slot assignment: every variable named anywhere in the query gets a
	// fixed slot up front, independent of atom order, in Query.SlotVars
	// order — the contract Cursor's slot accessors and the statement
	// layer's result columns share.
	p.treeName, p.labelName, p.pathName = q.SlotVars()
	for i, name := range p.treeName {
		if _, dup := p.treeSlot[name]; dup {
			return nil, fmt.Errorf("query: duplicate variable %q", name)
		}
		p.treeSlot[name] = i
	}
	for i, name := range p.labelName {
		p.labelSlot[name] = i
	}
	for i, name := range p.pathName {
		p.pathSlot[name] = i
	}

	// Atom ordering: greedily take the cheapest binding whose source is
	// already available. The original order is always a valid fallback, so
	// the loop terminates.
	//
	// The cost model scores a candidate by its estimated join fanout times
	// the selectivity of every where-conjunct that becomes checkable once
	// the candidate is bound — an atom that unlocks a selective filter is
	// worth running early even if its raw fanout is unremarkable.
	type cand struct {
		idx int
		b   Binding
	}
	var remaining []cand
	for i, b := range q.From {
		remaining = append(remaining, cand{i, b})
	}
	type ordCond struct {
		deps condDeps
		sel  float64
		used bool
	}
	var ordConds []*ordCond
	for _, c := range splitConjuncts(q.Where) {
		deps := newCondDeps()
		pl.depsOf(c, &deps)
		if deps.empty() {
			continue // constant condition: no bearing on atom order
		}
		ordConds = append(ordConds, &ordCond{deps: deps, sel: pl.selOf(c)})
	}
	boundTrees := map[string]bool{}
	boundLabels := map[string]bool{}
	boundPaths := map[string]bool{}
	cum := 1.0
	for len(remaining) > 0 {
		best, bestScore := -1, 0.0
		for ri, c := range remaining {
			if c.b.Source != "DB" && !boundTrees[c.b.Source] {
				continue
			}
			score := pl.atomFanout(c.b, boundLabels)
			for _, oc := range ordConds {
				if !oc.used && oc.deps.satisfiedWith(boundTrees, boundLabels, boundPaths, c.b) {
					score *= oc.sel
				}
			}
			if best < 0 || score < bestScore {
				best, bestScore = ri, score
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("query: unsatisfiable binding order (source of %q never bound)", remaining[0].b.Var)
		}
		chosen := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		cum *= bestScore
		// Explain reports cumulative estimated rows after the atom, so
		// estimates line up with ExplainAnalyze's actual counts.
		atom, err := pl.compileAtom(chosen.b, boundLabels, cum)
		if err != nil {
			return nil, err
		}
		p.atoms = append(p.atoms, atom)
		boundTrees[chosen.b.Var] = true
		for _, st := range chosen.b.Path {
			switch t := st.(type) {
			case LabelVarStep:
				boundLabels[t.Name] = true
			case PathVarStep:
				boundPaths[t.Name] = true
			}
		}
		for _, oc := range ordConds {
			if !oc.used && oc.deps.satisfied(boundTrees, boundLabels, boundPaths) {
				oc.used = true
			}
		}
	}

	if err := pl.placeConds(); err != nil {
		return nil, err
	}

	// Index access paths interpret `DB._*` as "any reachable source", which
	// needs the reachable set once.
	for _, a := range p.atoms {
		if a.access == AccessIndexSeek {
			p.reach = ssd.ReachableFrom(g, g.Root())
			break
		}
	}
	return p, nil
}

// gatherStats collects per-label occurrence counts: from the maintained
// statistics or the supplied label index when present, otherwise by one scan
// of the graph. Only the scan fallback pays per-plan cost; the maintained
// structures make planning O(query), not O(graph).
func (pl *planner) gatherStats() {
	g := pl.p.g
	pl.nodes = float64(g.NumNodes())
	if pl.nodes < 1 {
		pl.nodes = 1
	}
	if st := pl.p.opts.Stats; st != nil {
		pl.edges = float64(st.Edges())
		return
	}
	if ix := pl.p.opts.Label; ix != nil {
		pl.counts = nil // use ix.Count directly
		pl.edges = 0
		for _, l := range ix.Labels() {
			pl.edges += float64(ix.Count(l))
		}
		return
	}
	pl.counts = make(map[ssd.Label]int)
	total := 0
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(ssd.NodeID(v)) {
			pl.counts[e.Label]++
			total++
		}
	}
	pl.edges = float64(total)
}

func (pl *planner) countOf(l ssd.Label) float64 {
	if st := pl.p.opts.Stats; st != nil {
		return float64(st.Count(l))
	}
	if ix := pl.p.opts.Label; ix != nil {
		return float64(ix.Count(l))
	}
	return float64(pl.counts[l])
}

// rootCount returns the exact number of root out-edges labeled l.
func (pl *planner) rootCount(l ssd.Label) float64 {
	if pl.rootCounts == nil {
		g := pl.p.g
		pl.rootCounts = make(map[ssd.Label]float64)
		for _, e := range g.Out(g.Root()) {
			pl.rootCounts[e.Label]++
		}
	}
	return pl.rootCounts[l]
}

func (pl *planner) avgDeg() float64 {
	d := pl.edges / pl.nodes
	if d < 1 {
		d = 1
	}
	return d
}

// ---------------------------------------------------------------------------
// Cost model
//
// The cost model threads an estimated row frontier through each atom's path
// steps (atomFanout), sharpened by the maintained statistics where present:
// exact root out-degrees for the first step of a root-anchored atom,
// distinct-source counts for join containment, and the numeric histogram
// for range-predicate selectivity (selOf). Scores are relative — only their
// order matters to the greedy atom ordering — but the cumulative product is
// also surfaced in Explain as estimated rows, comparable against
// ExplainAnalyze's actual counts.

// Per-access-path unit costs: the relative price of producing one candidate
// row through each mechanism. A backward-verified posting costs more than a
// forward edge walk (each posting re-walks the chain prefix, one binary
// search of a by-target view per step); a dataguide product state costs more than a graph edge (extent
// union on acceptance).
const (
	unitForwardEdge    = 1.0
	unitBackwardVerify = 2.0
	unitGuideNode      = 1.5
)

// atomFanout estimates the rows produced by walking b's path from one
// already-bound source row (or from the root for DB-anchored atoms, where
// the leading frontier is exactly one node and root out-degrees are exact).
func (pl *planner) atomFanout(b Binding, boundLabels map[string]bool) float64 {
	f := 1.0
	fromRoot := b.Source == "DB"
	for _, st := range b.Path {
		switch t := st.(type) {
		case *RegexStep:
			f = pl.stepCard(f, t.Expr, fromRoot)
		case LabelVarStep:
			if boundLabels[t.Name] {
				// Equality filter against an already-bound label: expect one
				// matching edge.
			} else {
				f *= pl.avgDeg()
			}
		case PathVarStep:
			f *= pl.nodes
		case ParamStep:
			// Exact-label filter whose label is unknown at plan time.
			f *= pl.avgDeg() / 2
		}
		fromRoot = false
		if f > 1e18 {
			return 1e18
		}
	}
	return f
}

// stepCard estimates the frontier size after walking e from a frontier of f
// rows. fromRoot marks the first step of a root-anchored atom.
func (pl *planner) stepCard(f float64, e pathexpr.Expr, fromRoot bool) float64 {
	switch t := e.(type) {
	case pathexpr.Atom:
		switch pr := t.Pred.(type) {
		case pathexpr.ExactPred:
			return pl.exactCard(f, pr.L, fromRoot)
		case pathexpr.AnyPred:
			return f * pl.avgDeg()
		default:
			return f * pl.avgDeg() / 2
		}
	case pathexpr.Seq:
		for _, part := range t.Parts {
			f = pl.stepCard(f, part, fromRoot)
			fromRoot = false
			if f > 1e18 {
				return 1e18
			}
		}
		return f
	case pathexpr.Alt:
		w := 0.0
		for _, alt := range t.Alts {
			w += pl.stepCard(f, alt, fromRoot)
		}
		return w
	case pathexpr.Star, pathexpr.Plus:
		// A closure can reach a large fraction of the graph from each
		// frontier row; compose with the incoming frontier so upstream
		// selectivity is not discarded.
		return f * pl.nodes
	case pathexpr.Opt:
		return f + pl.stepCard(f, t.Sub, false)
	default:
		return f * pl.avgDeg()
	}
}

// exactCard estimates the frontier after following edges labeled l from f
// rows. With statistics, join containment applies: the frontier is assumed
// to lie inside l's source set, so each row fans out by count/distinct-src,
// capped at the label's total occurrence count.
func (pl *planner) exactCard(f float64, l ssd.Label, fromRoot bool) float64 {
	if fromRoot {
		return pl.rootCount(l)
	}
	cnt := pl.countOf(l)
	if st := pl.p.opts.Stats; st != nil {
		ds := float64(st.DistinctSources(l))
		if ds <= 0 {
			return 0
		}
		est := f * cnt / ds
		if est > cnt {
			est = cnt
		}
		return est
	}
	return f * cnt / pl.nodes
}

// selOf estimates the fraction of rows a where-conjunct keeps. Equality
// against a literal divides by the distinct-value count; range comparisons
// against a numeric literal read the histogram; everything else falls back
// to fixed fractions in the System R tradition.
func (pl *planner) selOf(c Cond) float64 {
	switch t := c.(type) {
	case And:
		return pl.selOf(t.L) * pl.selOf(t.R)
	case Or:
		a, b := pl.selOf(t.L), pl.selOf(t.R)
		return a + b - a*b
	case Not:
		return 1 - pl.selOf(t.Sub)
	case Cmp:
		return pl.cmpSel(t)
	case TypeTest, LikeCond:
		return 0.25
	case Exists:
		return 0.5
	default:
		return 1.0 / 3
	}
}

func (pl *planner) cmpSel(c Cmp) float64 {
	// Normalize to `var op lit`.
	var lit LitTerm
	var other Term
	op := c.Op
	if l, ok := c.L.(LitTerm); ok {
		lit, other, op = l, c.R, flipCmp(op) // lit op var ⇔ var flip(op) lit
	} else if r, ok := c.R.(LitTerm); ok {
		lit, other = r, c.L
	} else {
		return 1.0 / 3 // variable-to-variable or parameter: unknown at plan time
	}
	switch op {
	case pathexpr.OpEQ:
		return pl.eqSel(lit.L, other)
	case pathexpr.OpNE:
		return 0.9
	case pathexpr.OpGT, pathexpr.OpGE:
		if st := pl.p.opts.Stats; st != nil {
			if v, ok := lit.L.Numeric(); ok && st.NumericCount() > 0 {
				return clampSel(st.FracGreater(v))
			}
		}
		return 1.0 / 3
	case pathexpr.OpLT, pathexpr.OpLE:
		if st := pl.p.opts.Stats; st != nil {
			if v, ok := lit.L.Numeric(); ok && st.NumericCount() > 0 {
				return clampSel(st.FracLess(v))
			}
		}
		return 1.0 / 3
	default:
		return 1.0 / 3
	}
}

// eqSel estimates equality selectivity of `other = lit`.
func (pl *planner) eqSel(lit ssd.Label, other Term) float64 {
	switch other.(type) {
	case VarTerm:
		// A tree variable equals a value when the node carries a data edge
		// with that label: P ≈ nodes carrying the value / all nodes.
		if st := pl.p.opts.Stats; st != nil {
			return clampSel((float64(st.DistinctSources(lit)) + 0.5) / pl.nodes)
		}
		return clampSel((pl.countOf(lit) + 0.5) / pl.nodes)
	case LabelTerm:
		if pl.edges > 0 {
			return clampSel((pl.countOf(lit) + 0.5) / pl.edges)
		}
		return 0.1
	case PathLenTerm:
		return 0.25
	default:
		return 0.1
	}
}

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// flipCmp mirrors a comparison operator: a op b ⇔ b flip(op) a.
func flipCmp(op pathexpr.CmpOp) pathexpr.CmpOp {
	switch op {
	case pathexpr.OpLT:
		return pathexpr.OpGT
	case pathexpr.OpLE:
		return pathexpr.OpGE
	case pathexpr.OpGT:
		return pathexpr.OpLT
	case pathexpr.OpGE:
		return pathexpr.OpLE
	default:
		return op
	}
}

// compileAtom resolves slots, compiles steps, and picks the access path.
func (pl *planner) compileAtom(b Binding, boundLabels map[string]bool, est float64) (*planAtom, error) {
	p := pl.p
	a := &planAtom{
		b:       b,
		srcSlot: -1,
		dstSlot: p.treeSlot[b.Var],
		est:     est,
		dedup:   true,
	}
	if b.Source != "DB" {
		a.srcSlot = p.treeSlot[b.Source]
	}
	localBound := map[string]bool{}
	for name := range boundLabels {
		localBound[name] = true
	}
	for _, st := range b.Path {
		ps, err := pl.compileStep(st, localBound, p.labelSlot, p.pathSlot)
		if err != nil {
			return nil, err
		}
		// Variable-binding steps make destinations non-dedupable (two rows
		// can reach the same node with different bindings); a parameter step
		// is a pure filter and keeps dedup legal.
		if ps.kind == stepLabelVar || ps.kind == stepPathVar {
			a.dedup = false
		}
		a.steps = append(a.steps, ps)
	}
	pl.chooseAccess(a)
	return a, nil
}

// compileStep compiles one path step. Label variables present in slots bind
// (first occurrence) or filter (later occurrences); absent ones — possible
// only inside exists-paths — are wildcards.
func (pl *planner) compileStep(st PathStep, localBound map[string]bool, labelSlot, pathSlot map[string]int) (*planStep, error) {
	ps := &planStep{id: pl.p.nSteps, slot: -1}
	pl.p.nSteps++
	switch t := st.(type) {
	case *RegexStep:
		ps.kind = stepRegex
		// Per-plan automaton: the statement layer hands each concurrent
		// cursor its own pooled plan on the promise that plans own their
		// automata (and their mutable lazy-DFA caches) exclusively, so a
		// shared compiled form on the AST would race.
		ps.au = pathexpr.Compile(t.Expr)
	case LabelVarStep:
		ps.kind = stepLabelVar
		if slot, ok := labelSlot[t.Name]; ok {
			ps.slot = slot
			ps.filter = localBound[t.Name]
			localBound[t.Name] = true
		}
	case ParamStep:
		ps.kind = stepParam
		slot, ok := pl.p.paramSlot[t.Name]
		if !ok {
			return nil, fmt.Errorf("query: parameter $%s not registered", t.Name)
		}
		ps.slot = slot
	case PathVarStep:
		if slot, ok := pathSlot[t.Name]; ok {
			ps.kind = stepPathVar
			ps.slot = slot
			// Per-plan automaton for the witness search: automata carry a
			// mutable lazy-DFA cache, so sharing one across plans (or a
			// package global) would leak state between unrelated queries.
			ps.au = pathexpr.Compile(pathexpr.AnyStar())
		} else {
			// Unregistered path variable (exists-path): plain wildcard walk.
			ps.kind = stepRegex
			ps.au = pathexpr.Compile(pathexpr.AnyStar())
		}
	default:
		return nil, fmt.Errorf("query: unknown path step %T", st)
	}
	return ps, nil
}

// chooseAccess picks the access path for a compiled atom. Only root-anchored
// regex-only atoms have alternatives to forward traversal.
func (pl *planner) chooseAccess(a *planAtom) {
	a.access = AccessForward
	if a.srcSlot != -1 {
		return
	}
	parts, regexOnly := flattenRegexPath(a.b.Path)
	if !regexOnly || len(parts) == 0 {
		return
	}

	if pl.p.opts.Label != nil {
		// `_*.label`: the posting list is the answer.
		if l, ok := seekShape(parts); ok {
			a.access = AccessIndexSeek
			a.seekLabel = l
			return
		}
		// Exact chain with a rare interior label: seek the rarest posting
		// list and verify the prefix backward against the index itself, so
		// every store can take this path.
		if chain, ok := exactChain(parts); ok && len(chain) >= 2 {
			minIdx := 0
			for i, l := range chain {
				if pl.countOf(l) < pl.countOf(chain[minIdx]) {
					minIdx = i
				}
			}
			// Priced per candidate row: forward walks every chain edge from
			// chain[0] onward at forward-edge cost; backward touches one
			// posting per rarest-label edge, each verified over at most
			// len(chain) backward steps at the higher verify cost.
			depth := float64(len(chain))
			forward := pl.countOf(chain[0]) * depth * unitForwardEdge
			backward := pl.countOf(chain[minIdx]) * depth * unitBackwardVerify
			if minIdx > 0 && backward < forward {
				a.access = AccessIndexBackward
				a.chain = chain
				a.chainIdx = minIdx
				return
			}
		}
	}
	if pl.p.opts.Guide != nil {
		// A dataguide product visits at most one state per guide node; the
		// forward product can touch the whole graph. Price both worst cases.
		guideCost := float64(pl.p.opts.Guide.G.NumNodes()) * unitGuideNode
		forwardCost := (pl.nodes + pl.edges) * unitForwardEdge
		if guideCost < forwardCost {
			a.access = AccessGuide
			a.guideAu = pathexpr.Compile(pathexpr.Seq{Parts: parts})
		}
		return
	}
}

// flattenRegexPath returns the top-level expression list of an all-regex
// path (splicing top-level Seqs), or ok=false if any step binds a variable.
func flattenRegexPath(path []PathStep) ([]pathexpr.Expr, bool) {
	var parts []pathexpr.Expr
	for _, st := range path {
		rs, ok := st.(*RegexStep)
		if !ok {
			return nil, false
		}
		if seq, isSeq := rs.Expr.(pathexpr.Seq); isSeq {
			parts = append(parts, seq.Parts...)
		} else {
			parts = append(parts, rs.Expr)
		}
	}
	return parts, true
}

// seekShape recognizes `_* . exact-label` (any number of leading `_*`
// parts). The label must be a symbol or string so that posting-list identity
// equals predicate equality (no numeric overloading).
func seekShape(parts []pathexpr.Expr) (ssd.Label, bool) {
	if len(parts) < 2 {
		return ssd.Label{}, false
	}
	for _, p := range parts[:len(parts)-1] {
		if !isAnyStar(p) {
			return ssd.Label{}, false
		}
	}
	at, ok := parts[len(parts)-1].(pathexpr.Atom)
	if !ok {
		return ssd.Label{}, false
	}
	ex, ok := at.Pred.(pathexpr.ExactPred)
	if !ok {
		return ssd.Label{}, false
	}
	if k := ex.L.Kind(); k != ssd.KindSymbol && k != ssd.KindString {
		return ssd.Label{}, false
	}
	return ex.L, true
}

func isAnyStar(e pathexpr.Expr) bool {
	st, ok := e.(pathexpr.Star)
	if !ok {
		return false
	}
	at, ok := st.Sub.(pathexpr.Atom)
	if !ok {
		return false
	}
	_, ok = at.Pred.(pathexpr.AnyPred)
	return ok
}

// exactChain recognizes a pure exact-symbol chain l0.l1.…lk.
func exactChain(parts []pathexpr.Expr) ([]ssd.Label, bool) {
	chain := make([]ssd.Label, 0, len(parts))
	for _, p := range parts {
		at, ok := p.(pathexpr.Atom)
		if !ok {
			return nil, false
		}
		ex, ok := at.Pred.(pathexpr.ExactPred)
		if !ok {
			return nil, false
		}
		if k := ex.L.Kind(); k != ssd.KindSymbol && k != ssd.KindString {
			return nil, false
		}
		chain = append(chain, ex.L)
	}
	return chain, true
}

// ---------------------------------------------------------------------------
// Where-conjunct compilation and placement

// placeConds splits the where clause into conjuncts, compiles each against
// the slot tables, and attaches it to the earliest atom after which all of
// its variables are bound.
func (pl *planner) placeConds() error {
	p := pl.p
	if p.q.Where == nil {
		return nil
	}
	// boundAt[i]: sets bound after atoms[0..i] ran.
	for _, c := range splitConjuncts(p.q.Where) {
		deps := newCondDeps()
		pl.depsOf(c, &deps)
		at := -1 // -1 = no variables: pre-condition
		bt := map[string]bool{}
		bl := map[string]bool{}
		bp := map[string]bool{}
		for i, a := range p.atoms {
			bt[a.b.Var] = true
			for _, st := range a.b.Path {
				switch t := st.(type) {
				case LabelVarStep:
					bl[t.Name] = true
				case PathVarStep:
					bp[t.Name] = true
				}
			}
			if !deps.satisfied(bt, bl, bp) {
				continue
			}
			at = i
			break
		}
		if at == -1 && !deps.empty() {
			// Should be impossible after Parse's resolution.
			return fmt.Errorf("query: condition references variables never bound")
		}
		cc, err := pl.compileCond(c)
		if err != nil {
			return err
		}
		if at == -1 {
			p.preConds = append(p.preConds, cc)
		} else {
			p.atoms[at].conds = append(p.atoms[at].conds, cc)
		}
	}
	return nil
}

// splitConjuncts flattens a where clause into its top-level conjuncts.
func splitConjuncts(c Cond) []Cond {
	if c == nil {
		return nil
	}
	var out []Cond
	var split func(c Cond)
	split = func(c Cond) {
		if and, ok := c.(And); ok {
			split(and.L)
			split(and.R)
			return
		}
		out = append(out, c)
	}
	split(c)
	return out
}

type condDeps struct {
	trees, labels, paths map[string]bool
}

func newCondDeps() condDeps {
	return condDeps{trees: map[string]bool{}, labels: map[string]bool{}, paths: map[string]bool{}}
}

func (d *condDeps) empty() bool {
	return len(d.trees) == 0 && len(d.labels) == 0 && len(d.paths) == 0
}

// satisfiedWith reports whether the dependencies would all be bound once b
// joins the already-bound sets — the ordering loop's what-if probe, done
// without materializing the updated sets per candidate.
func (d *condDeps) satisfiedWith(bt, bl, bp map[string]bool, b Binding) bool {
	for v := range d.trees {
		if !bt[v] && v != b.Var {
			return false
		}
	}
	for v := range d.labels {
		if !bl[v] && !bindsLabelVar(b, v) {
			return false
		}
	}
	for v := range d.paths {
		if !bp[v] && !bindsPathVar(b, v) {
			return false
		}
	}
	return true
}

func bindsLabelVar(b Binding, name string) bool {
	for _, st := range b.Path {
		if lv, ok := st.(LabelVarStep); ok && lv.Name == name {
			return true
		}
	}
	return false
}

func bindsPathVar(b Binding, name string) bool {
	for _, st := range b.Path {
		if pv, ok := st.(PathVarStep); ok && pv.Name == name {
			return true
		}
	}
	return false
}

func (d *condDeps) satisfied(bt, bl, bp map[string]bool) bool {
	for v := range d.trees {
		if !bt[v] {
			return false
		}
	}
	for v := range d.labels {
		if !bl[v] {
			return false
		}
	}
	for v := range d.paths {
		if !bp[v] {
			return false
		}
	}
	return true
}

func (pl *planner) depsOf(c Cond, d *condDeps) {
	switch t := c.(type) {
	case And:
		pl.depsOf(t.L, d)
		pl.depsOf(t.R, d)
	case Or:
		pl.depsOf(t.L, d)
		pl.depsOf(t.R, d)
	case Not:
		pl.depsOf(t.Sub, d)
	case Cmp:
		pl.termDeps(t.L, d)
		pl.termDeps(t.R, d)
	case TypeTest:
		pl.termDeps(t.T, d)
	case LikeCond:
		pl.termDeps(t.T, d)
	case Exists:
		d.trees[t.Source] = true
		for _, st := range t.Path {
			if lv, ok := st.(LabelVarStep); ok {
				if _, registered := pl.p.labelSlot[lv.Name]; registered {
					d.labels[lv.Name] = true
				}
			}
		}
	}
}

func (pl *planner) termDeps(t Term, d *condDeps) {
	switch tt := t.(type) {
	case VarTerm:
		d.trees[tt.Name] = true
	case LabelTerm:
		d.labels[tt.Name] = true
	case PathLenTerm:
		d.paths[tt.Name] = true
	}
}

// ---------------------------------------------------------------------------
// Compiled conditions: the filter operator's predicate language, with every
// variable reference resolved to a slot at plan time.

type cCond interface {
	eval(ex *executor) bool
}

type cAnd struct{ l, r cCond }
type cOr struct{ l, r cCond }
type cNot struct{ sub cCond }

func (c cAnd) eval(ex *executor) bool { return c.l.eval(ex) && c.r.eval(ex) }
func (c cOr) eval(ex *executor) bool  { return c.l.eval(ex) || c.r.eval(ex) }
func (c cNot) eval(ex *executor) bool { return !c.sub.eval(ex) }

type termKind int

const (
	termLit termKind = iota
	termTree
	termLabel
	termPathLen
	termParam
)

// cTerm is a slot-resolved term. Its value set is enumerated without
// materialization via each.
type cTerm struct {
	kind termKind
	lit  ssd.Label
	slot int
}

// each calls f on every value of the term, stopping early (and returning
// true) when f returns true.
func (t cTerm) each(ex *executor, f func(ssd.Label) bool) bool {
	switch t.kind {
	case termLit:
		return f(t.lit)
	case termLabel:
		return f(ex.regs.labels[t.slot])
	case termPathLen:
		return f(ssd.Int(int64(len(ex.regs.paths[t.slot]))))
	case termParam:
		return f(ex.params[t.slot])
	default: // termTree: the labels of the node's data edges
		n := ex.regs.trees[t.slot]
		for _, e := range ex.g.Out(n) {
			if e.Label.IsData() && f(e.Label) {
				return true
			}
		}
		return false
	}
}

type cCmp struct {
	op   pathexpr.CmpOp
	l, r cTerm
}

func (c cCmp) eval(ex *executor) bool {
	return c.l.each(ex, func(a ssd.Label) bool {
		return c.r.each(ex, func(b ssd.Label) bool {
			return c.op.Apply(a, b)
		})
	})
}

type cPred struct {
	pred pathexpr.Pred
	t    cTerm
}

func (c cPred) eval(ex *executor) bool {
	return c.t.each(ex, func(v ssd.Label) bool { return c.pred.Match(v) })
}

type cExists struct {
	srcSlot int
	steps   []*planStep
}

func (c cExists) eval(ex *executor) bool {
	return ex.pathExists(ex.regs.trees[c.srcSlot], c.steps, 0)
}

func (pl *planner) compileCond(c Cond) (cCond, error) {
	switch t := c.(type) {
	case And:
		l, err := pl.compileCond(t.L)
		if err != nil {
			return nil, err
		}
		r, err := pl.compileCond(t.R)
		if err != nil {
			return nil, err
		}
		return cAnd{l, r}, nil
	case Or:
		l, err := pl.compileCond(t.L)
		if err != nil {
			return nil, err
		}
		r, err := pl.compileCond(t.R)
		if err != nil {
			return nil, err
		}
		return cOr{l, r}, nil
	case Not:
		sub, err := pl.compileCond(t.Sub)
		if err != nil {
			return nil, err
		}
		return cNot{sub}, nil
	case Cmp:
		l, err := pl.compileTerm(t.L)
		if err != nil {
			return nil, err
		}
		r, err := pl.compileTerm(t.R)
		if err != nil {
			return nil, err
		}
		return cCmp{op: t.Op, l: l, r: r}, nil
	case TypeTest:
		tm, err := pl.compileTerm(t.T)
		if err != nil {
			return nil, err
		}
		return cPred{pred: t.Pred, t: tm}, nil
	case LikeCond:
		tm, err := pl.compileTerm(t.T)
		if err != nil {
			return nil, err
		}
		return cPred{pred: pathexpr.LikePred{Pattern: t.Pattern}, t: tm}, nil
	case Exists:
		slot, ok := pl.p.treeSlot[t.Source]
		if !ok {
			return nil, fmt.Errorf("query: exists source %q unbound", t.Source)
		}
		// Label variables inside the path: registered ones filter against
		// their from-clause binding; unregistered ones get a scratch slot so
		// repeated occurrences still join on equality within one walk (the
		// naive engine threads them through walkSteps the same way).
		localSlots := map[string]int{}
		var steps []*planStep
		for _, st := range t.Path {
			if lv, isLV := st.(LabelVarStep); isLV {
				ps := &planStep{id: pl.p.nSteps, kind: stepLabelVar}
				pl.p.nSteps++
				if s, registered := pl.p.labelSlot[lv.Name]; registered {
					ps.slot, ps.filter = s, true
				} else if s, seen := localSlots[lv.Name]; seen {
					ps.slot, ps.filter = s, true
				} else {
					s = len(pl.p.labelName) + pl.p.nExistsLocals
					pl.p.nExistsLocals++
					localSlots[lv.Name] = s
					ps.slot = s // bind mode: first occurrence in this walk
				}
				steps = append(steps, ps)
				continue
			}
			ps, err := pl.compileStep(st, nil, pl.p.labelSlot, pl.p.pathSlot)
			if err != nil {
				return nil, err
			}
			if ps.kind == stepPathVar {
				// Path variables inside exists are wildcards; their binding
				// would be discarded anyway.
				ps.kind = stepRegex
				ps.au = pathexpr.Compile(pathexpr.AnyStar())
				ps.slot = -1
			}
			steps = append(steps, ps)
		}
		return cExists{srcSlot: slot, steps: steps}, nil
	default:
		return nil, fmt.Errorf("query: unknown condition %T", c)
	}
}

func (pl *planner) compileTerm(t Term) (cTerm, error) {
	switch tt := t.(type) {
	case LitTerm:
		return cTerm{kind: termLit, lit: tt.L}, nil
	case VarTerm:
		slot, ok := pl.p.treeSlot[tt.Name]
		if !ok {
			return cTerm{}, fmt.Errorf("query: variable %q unbound", tt.Name)
		}
		return cTerm{kind: termTree, slot: slot}, nil
	case LabelTerm:
		slot, ok := pl.p.labelSlot[tt.Name]
		if !ok {
			return cTerm{}, fmt.Errorf("query: label variable %%%s unbound", tt.Name)
		}
		return cTerm{kind: termLabel, slot: slot}, nil
	case PathLenTerm:
		slot, ok := pl.p.pathSlot[tt.Name]
		if !ok {
			return cTerm{}, fmt.Errorf("query: path variable @%s unbound", tt.Name)
		}
		return cTerm{kind: termPathLen, slot: slot}, nil
	case ParamTerm:
		slot, ok := pl.p.paramSlot[tt.Name]
		if !ok {
			return cTerm{}, fmt.Errorf("query: parameter $%s not registered", tt.Name)
		}
		return cTerm{kind: termParam, slot: slot}, nil
	default:
		return cTerm{}, fmt.Errorf("query: unknown term %T", t)
	}
}

// ---------------------------------------------------------------------------
// Explain

// Explain renders the plan for humans: atom order, access paths, estimated
// cardinalities, and filter placement.
func (p *Plan) Explain() string { return p.explainWith(nil) }

// ExplainAnalyze executes the plan serially to exhaustion, counting the
// rows that survive each atom's filters, and renders the plan with
// estimated and actual cardinalities side by side — the feedback view for
// judging the cost model. params binds the plan's $parameters, exactly as
// for Cursor. The result rows themselves are discarded.
func (p *Plan) ExplainAnalyze(ctx context.Context, params map[string]ssd.Label) (string, error) {
	var tr ExecTrace
	cur, err := p.Cursor(ctx, params, &tr)
	if err != nil {
		return "", err
	}
	for cur.Next() {
	}
	cur.Close()
	if err := cur.Err(); err != nil {
		return "", err
	}
	return p.explainWith(tr.AtomRows), nil
}

// explainWith renders the plan, annotating each atom with its observed row
// count when actual is non-nil (one counter per atom, in plan order) —
// ExplainAnalyze's estimated-vs-actual view.
func (p *Plan) explainWith(actual []int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d atoms, %d tree / %d label / %d path slots", len(p.atoms), len(p.treeName), len(p.labelName), len(p.pathName))
	if len(p.paramName) > 0 {
		fmt.Fprintf(&b, ", %d params", len(p.paramName))
	}
	b.WriteByte('\n')
	if len(p.preConds) > 0 {
		fmt.Fprintf(&b, "  pre-filter: %d constant condition(s)\n", len(p.preConds))
	}
	for i, a := range p.atoms {
		src := a.b.Source
		var steps strings.Builder
		writeSteps(&steps, a.b.Path)
		fmt.Fprintf(&b, "  %d. %s := %s%s  access=%s est=%.3g", i+1, a.b.Var, src, steps.String(), a.access, a.est)
		if actual != nil && i < len(actual) {
			fmt.Fprintf(&b, " actual=%d", actual[i])
		}
		switch a.access {
		case AccessIndexSeek:
			fmt.Fprintf(&b, " label=%s", a.seekLabel)
		case AccessIndexBackward:
			fmt.Fprintf(&b, " seek=%s@%d", a.chain[a.chainIdx], a.chainIdx)
		}
		b.WriteByte('\n')
		for range a.conds {
			fmt.Fprintf(&b, "     filter placed here\n")
		}
	}
	return b.String()
}
