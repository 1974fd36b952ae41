package datalog

import (
	"context"
	"fmt"

	"repro/internal/pathexpr"
	"repro/internal/ssd"
)

// Mode selects the bottom-up evaluation strategy.
type Mode int

// Evaluation modes: Naive re-joins full relations every round; SemiNaive
// restricts one body occurrence per rule to the previous round's delta.
const (
	Naive Mode = iota
	SemiNaive
)

// Relation is a set of tuples with hash indexes per position, built lazily.
type Relation struct {
	Arity  int
	tuples []Tuple
	seen   map[string]bool
	idx    map[int]map[string][]int
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{Arity: arity, seen: map[string]bool{}}
}

// Add inserts a tuple, reporting whether it was new.
func (r *Relation) Add(t Tuple) bool {
	k := t.key()
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	i := len(r.tuples)
	r.tuples = append(r.tuples, t)
	for pos, ix := range r.idx {
		vk := string(t[pos].appendKey(nil))
		ix[vk] = append(ix[vk], i)
	}
	return true
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the backing tuple slice (not to be mutated).
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Has reports membership.
func (r *Relation) Has(t Tuple) bool { return r.seen[t.key()] }

// lookup returns indices of tuples whose value at pos equals v, building the
// position index on first use.
func (r *Relation) lookup(pos int, v Value) []int {
	if r.idx == nil {
		r.idx = map[int]map[string][]int{}
	}
	ix, ok := r.idx[pos]
	if !ok {
		ix = map[string][]int{}
		for i, t := range r.tuples {
			vk := string(t[pos].appendKey(nil))
			ix[vk] = append(ix[vk], i)
		}
		r.idx[pos] = ix
	}
	return ix[string(v.appendKey(nil))]
}

// Engine evaluates programs against one graph.
type Engine struct {
	g   ssd.GraphStore
	edb map[string]*Relation

	// Joins counts tuple-match attempts during Run — the work metric
	// experiment E4 reports alongside wall time.
	Joins int

	ctx context.Context // Run's context; nil disables cancellation checks
	err error           // the cancellation that stopped Run, once seen
}

// cancelled reports whether Run must stop: its context is done, now or at
// an earlier poll.
//
//ssd:poll
func (e *Engine) cancelled() bool {
	if e.err == nil && e.ctx != nil {
		e.err = e.ctx.Err()
	}
	return e.err != nil
}

// join counts one tuple-match attempt and reports whether Run must stop,
// polling the context every 1024 attempts.
func (e *Engine) join() bool {
	if e.Joins++; e.Joins%1024 == 0 {
		return e.cancelled()
	}
	return e.err != nil
}

// NewEngine materializes the graph's EDB: edge/3 over all edges and root/1.
// Any GraphStore works — the engine is bottom-up, so the store is read once
// here and only Root is consulted later.
func NewEngine(g ssd.GraphStore) *Engine {
	edge := NewRelation(3)
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(ssd.NodeID(v)) {
			edge.Add(Tuple{NodeValue(ssd.NodeID(v)), LabelValue(e.Label), NodeValue(e.To)})
		}
	}
	root := NewRelation(1)
	root.Add(Tuple{NodeValue(g.Root())})
	return &Engine{g: g, edb: map[string]*Relation{"edge": edge, "root": root}}
}

// edbArity is the fixed EDB schema every graph provides.
var edbArity = map[string]int{"edge": 3, "root": 1}

// typeBuiltins are the unary type tests: the path language's predicates.
var typeBuiltins = map[string]pathexpr.TypePred{
	"isint": {Kind: ssd.KindInt}, "isfloat": {Kind: ssd.KindFloat}, "isstring": {Kind: ssd.KindString},
	"issymbol": {Kind: ssd.KindSymbol}, "isbool": {Kind: ssd.KindBool}, "isdata": {IsData: true},
}

var builtinArity = map[string]int{
	"isint": 1, "isfloat": 1, "isstring": 1, "issymbol": 1, "isbool": 1, "isdata": 1,
	"lt": 2, "le": 2, "gt": 2, "ge": 2, "eq": 2, "neq": 2, "like": 2,
}

// Check reports whether prog is well formed against the graph EDB (edge/3,
// root/1) — known predicates at their arities, safe rules, stratified
// negation — without reading any graph. Run makes the same checks.
func Check(prog *Program) error {
	idbArity, err := validate(prog)
	if err != nil {
		return err
	}
	_, err = stratify(prog, idbArity)
	return err
}

// Run evaluates the program and returns every IDB relation. It polls ctx
// after every round and every 1024 tuple matches within one; once ctx is
// done it stops with ctx's error (and partial relations). A nil ctx
// disables the checks.
func (e *Engine) Run(ctx context.Context, prog *Program, mode Mode) (map[string]*Relation, error) {
	idbArity, err := validate(prog)
	if err != nil {
		return nil, err
	}
	strata, err := stratify(prog, idbArity)
	if err != nil {
		return nil, err
	}
	idb := make(map[string]*Relation, len(idbArity))
	for p, ar := range idbArity {
		idb[p] = NewRelation(ar)
	}
	for si := range strata {
		for ri := range strata[si] {
			strata[si][ri] = reorderBody(strata[si][ri])
		}
	}
	e.ctx, e.err = ctx, nil
	for _, rules := range strata {
		if mode == Naive {
			e.runNaive(rules, idb)
		} else {
			e.runSemiNaive(rules, idb, idbArity)
		}
	}
	return idb, e.err
}

// runNaive loops full-relation rule application to fixpoint.
//
//ssd:ctxpoll
func (e *Engine) runNaive(rules []Rule, idb map[string]*Relation) {
	for {
		added := false
		for _, r := range rules {
			derived := e.applyRule(r, idb, nil, -1)
			rel := idb[r.Head.Pred]
			for _, t := range derived {
				if rel.Add(t) {
					added = true
				}
			}
		}
		if !added || e.cancelled() {
			return
		}
	}
}

// runSemiNaive applies the standard delta iteration within one stratum.
//
//ssd:ctxpoll
func (e *Engine) runSemiNaive(rules []Rule, idb map[string]*Relation, idbArity map[string]int) {
	stratumPreds := map[string]bool{}
	for _, r := range rules {
		stratumPreds[r.Head.Pred] = true
	}
	// Round 0: full evaluation seeds the deltas.
	delta := map[string]*Relation{}
	for p := range stratumPreds {
		delta[p] = NewRelation(idbArity[p])
	}
	for _, r := range rules {
		rel := idb[r.Head.Pred]
		for _, t := range e.applyRule(r, idb, nil, -1) {
			if rel.Add(t) {
				delta[r.Head.Pred].Add(t)
			}
		}
	}
	for {
		next := map[string]*Relation{}
		for p := range stratumPreds {
			next[p] = NewRelation(idbArity[p])
		}
		any := false
		for _, r := range rules {
			// One evaluation per occurrence of a same-stratum IDB atom,
			// with that occurrence restricted to the delta.
			for j, lit := range r.Body {
				if lit.Negated || !stratumPreds[lit.Atom.Pred] {
					continue
				}
				d := delta[lit.Atom.Pred]
				if d.Len() == 0 {
					continue
				}
				rel := idb[r.Head.Pred]
				for _, t := range e.applyRule(r, idb, d, j) {
					if rel.Add(t) {
						next[r.Head.Pred].Add(t)
						any = true
					}
				}
			}
		}
		if !any || e.cancelled() {
			return
		}
		delta = next
	}
}

// applyRule evaluates a rule body and returns the derived head tuples.
// When deltaAt ≥ 0, body literal deltaAt reads from delta instead of its
// full relation.
func (e *Engine) applyRule(r Rule, idb map[string]*Relation, delta *Relation, deltaAt int) []Tuple {
	var out []Tuple
	env := map[string]Value{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(r.Body) {
			t := make(Tuple, len(r.Head.Args))
			for k, a := range r.Head.Args {
				t[k] = resolveTerm(a, env, e.g)
			}
			out = append(out, t)
			return
		}
		lit := r.Body[i]
		if _, isBuiltin := builtinArity[lit.Atom.Pred]; isBuiltin {
			ok, err := e.evalBuiltin(lit.Atom, env)
			if err == nil && ok != lit.Negated {
				rec(i + 1)
			}
			return
		}
		rel := e.relationOf(lit.Atom.Pred, idb)
		if i == deltaAt {
			rel = delta
		}
		if rel == nil {
			return
		}
		if lit.Negated {
			t := make(Tuple, len(lit.Atom.Args))
			for k, a := range lit.Atom.Args {
				t[k] = resolveTerm(a, env, e.g)
			}
			if e.join() {
				return
			}
			if !rel.Has(t) {
				rec(i + 1)
			}
			return
		}
		e.scanAtom(lit.Atom, rel, env, func() { rec(i + 1) })
	}
	rec(0)
	return out
}

// scanAtom enumerates matching tuples, extending env for each and calling k.
func (e *Engine) scanAtom(a Atom, rel *Relation, env map[string]Value, k func()) {
	// Choose an indexed position: the first argument already bound.
	probe := -1
	var probeVal Value
	for i, t := range a.Args {
		if !t.IsVar() {
			probe, probeVal = i, resolveTerm(t, env, e.g)
			break
		}
		if v, ok := env[t.Var]; ok {
			probe, probeVal = i, v
			break
		}
	}
	tryTuple := func(t Tuple) {
		if e.join() {
			return
		}
		var bound []string
		ok := true
		for i, arg := range a.Args {
			want := t[i]
			if !arg.IsVar() {
				if !resolveTerm(arg, env, e.g).Equal(want) {
					ok = false
					break
				}
				continue
			}
			if v, have := env[arg.Var]; have {
				if !v.Equal(want) {
					ok = false
					break
				}
				continue
			}
			env[arg.Var] = want
			bound = append(bound, arg.Var)
		}
		if ok {
			k()
		}
		for _, v := range bound {
			delete(env, v)
		}
	}
	if probe >= 0 {
		for _, i := range rel.lookup(probe, probeVal) {
			tryTuple(rel.tuples[i])
		}
		return
	}
	for _, t := range rel.tuples {
		tryTuple(t)
	}
}

func (e *Engine) relationOf(pred string, idb map[string]*Relation) *Relation {
	if r, ok := e.edb[pred]; ok {
		return r
	}
	return idb[pred]
}

func resolveTerm(t Term, env map[string]Value, g ssd.GraphStore) Value {
	if t.IsVar() {
		return env[t.Var]
	}
	if t.Const.IsNode && t.Const.Node == rootSentinel {
		return NodeValue(g.Root())
	}
	return t.Const
}

func (e *Engine) evalBuiltin(a Atom, env map[string]Value) (bool, error) {
	vals := make([]Value, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			v, ok := env[t.Var]
			if !ok {
				return false, fmt.Errorf("datalog: builtin %s: unbound variable %s", a.Pred, t.Var)
			}
			vals[i] = v
		} else {
			vals[i] = resolveTerm(t, env, e.g)
		}
	}
	label := func(i int) (ssd.Label, bool) {
		if vals[i].IsNode {
			return ssd.Label{}, false
		}
		return vals[i].Label, true
	}
	if tp, ok := typeBuiltins[a.Pred]; ok {
		l, isLabel := label(0)
		return isLabel && tp.Match(l), nil
	}
	switch a.Pred {
	case "eq":
		return vals[0].Equal(vals[1]), nil
	case "neq":
		return !vals[0].Equal(vals[1]), nil
	case "lt", "le", "gt", "ge":
		a0, ok0 := label(0)
		a1, ok1 := label(1)
		if !ok0 || !ok1 {
			return false, nil
		}
		op := map[string]pathexpr.CmpOp{
			"lt": pathexpr.OpLT, "le": pathexpr.OpLE,
			"gt": pathexpr.OpGT, "ge": pathexpr.OpGE,
		}[a.Pred]
		return op.Apply(a0, a1), nil
	case "like":
		l, ok := label(0)
		if !ok {
			return false, nil
		}
		pat, ok2 := label(1)
		if !ok2 {
			return false, nil
		}
		ps, isStr := pat.Text()
		if !isStr {
			return false, fmt.Errorf("datalog: like pattern must be a string")
		}
		return pathexpr.LikePred{Pattern: ps}.Match(l), nil
	}
	return false, fmt.Errorf("datalog: unknown builtin %s", a.Pred)
}

// ---------------------------------------------------------------------------
// Validation and stratification

func validate(prog *Program) (map[string]int, error) {
	idbArity := map[string]int{}
	for _, r := range prog.Rules {
		if _, isEDB := edbArity[r.Head.Pred]; isEDB {
			return nil, fmt.Errorf("datalog: rule head %s redefines EDB predicate", r.Head.Pred)
		}
		if _, isB := builtinArity[r.Head.Pred]; isB {
			return nil, fmt.Errorf("datalog: rule head %s redefines builtin", r.Head.Pred)
		}
		if ar, ok := idbArity[r.Head.Pred]; ok && ar != len(r.Head.Args) {
			return nil, fmt.Errorf("datalog: %s used with arities %d and %d", r.Head.Pred, ar, len(r.Head.Args))
		}
		idbArity[r.Head.Pred] = len(r.Head.Args)
	}
	// Arity checks for body atoms + safety (range restriction).
	for _, r := range prog.Rules {
		positive := map[string]bool{}
		for _, lit := range r.Body {
			ar := -1
			if a, ok := builtinArity[lit.Atom.Pred]; ok {
				ar = a
			} else if a, ok := edbArity[lit.Atom.Pred]; ok {
				ar = a
			} else if a, ok := idbArity[lit.Atom.Pred]; ok {
				ar = a
			} else {
				return nil, fmt.Errorf("datalog: unknown predicate %s in rule %s", lit.Atom.Pred, r)
			}
			if ar != len(lit.Atom.Args) {
				return nil, fmt.Errorf("datalog: %s expects %d args, got %d", lit.Atom.Pred, ar, len(lit.Atom.Args))
			}
			_, isBuiltin := builtinArity[lit.Atom.Pred]
			if !lit.Negated && !isBuiltin {
				for _, t := range lit.Atom.Args {
					if t.IsVar() {
						positive[t.Var] = true
					}
				}
			}
		}
		for _, t := range r.Head.Args {
			if t.IsVar() && !positive[t.Var] {
				return nil, fmt.Errorf("datalog: unsafe rule %s: head variable %s not bound by a positive atom", r, t.Var)
			}
		}
		for _, lit := range r.Body {
			_, isBuiltin := builtinArity[lit.Atom.Pred]
			if lit.Negated || isBuiltin {
				for _, t := range lit.Atom.Args {
					if t.IsVar() && !positive[t.Var] {
						return nil, fmt.Errorf("datalog: unsafe rule %s: variable %s in %s not bound by a positive atom", r, t.Var, lit)
					}
				}
			}
		}
	}
	return idbArity, nil
}

// reorderBody delays builtins and negated literals until their variables
// are bound by earlier positive atoms, so left-to-right evaluation is always
// well-defined regardless of how the user ordered the body.
func reorderBody(r Rule) Rule {
	isFilter := func(lit Literal) bool {
		_, b := builtinArity[lit.Atom.Pred]
		return b || lit.Negated
	}
	allBound := func(lit Literal, bound map[string]bool) bool {
		for _, t := range lit.Atom.Args {
			if t.IsVar() && !bound[t.Var] {
				return false
			}
		}
		return true
	}
	bound := map[string]bool{}
	remaining := append([]Literal(nil), r.Body...)
	out := make([]Literal, 0, len(remaining))
	for len(remaining) > 0 {
		picked := -1
		for i, lit := range remaining {
			if isFilter(lit) && allBound(lit, bound) {
				picked = i
				break
			}
		}
		if picked < 0 {
			for i, lit := range remaining {
				if !isFilter(lit) {
					picked = i
					break
				}
			}
		}
		if picked < 0 {
			picked = 0 // only unbindable filters left; validate() rejects this
		}
		lit := remaining[picked]
		remaining = append(remaining[:picked], remaining[picked+1:]...)
		if !isFilter(lit) {
			for _, t := range lit.Atom.Args {
				if t.IsVar() {
					bound[t.Var] = true
				}
			}
		}
		out = append(out, lit)
	}
	r.Body = out
	return r
}

// stratify orders IDB predicates so that negation never looks upward.
// It returns rules grouped by stratum, ascending.
func stratify(prog *Program, idbArity map[string]int) ([][]Rule, error) {
	stratum := map[string]int{}
	for p := range idbArity {
		stratum[p] = 0
	}
	n := len(idbArity)
	for iter := 0; ; iter++ {
		if iter > n*n+1 {
			return nil, fmt.Errorf("datalog: program is not stratifiable (negation through recursion)")
		}
		changed := false
		for _, r := range prog.Rules {
			h := r.Head.Pred
			for _, lit := range r.Body {
				q := lit.Atom.Pred
				if _, isIDB := idbArity[q]; !isIDB {
					continue
				}
				min := stratum[q]
				if lit.Negated {
					min++
				}
				if stratum[h] < min {
					stratum[h] = min
					changed = true
					if stratum[h] > n {
						return nil, fmt.Errorf("datalog: program is not stratifiable (negation through recursion)")
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	maxS := 0
	for _, s := range stratum {
		if s > maxS {
			maxS = s
		}
	}
	out := make([][]Rule, maxS+1)
	for _, r := range prog.Rules {
		s := stratum[r.Head.Pred]
		out[s] = append(out[s], r)
	}
	return out, nil
}
