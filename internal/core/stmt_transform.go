package core

// The transform front-end (LangTransform): one UnQL restructuring command,
// `relabel <pred> to <target>`, `delete <pred>`, `collapse <pred>` or
// `expand <pred> to <target>('.' <target>)*`, where <pred> is one path
// label predicate and a <target> a label literal or a $parameter. It scans
// with ssd.Scanner and reads the predicate through pathexpr's scanner entry.

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/pathexpr"
	"repro/internal/ssd"
	"repro/internal/unql"
)

// transformSyntax is the transform language's share of the scanner: the
// path-expression punctuation and operators its predicates use.
var transformSyntax = &ssd.Syntax{
	Prefix: "unql",
	Punct:  ".|*+?()!<>=$",
	Ops:    []ssd.Tok{ssd.TokLE, ssd.TokGE, ssd.TokNE},
}

// transformVerbs maps each verb to its restructuring; relabel and expand
// take their `to` targets.
var transformVerbs = map[string]func(g *ssd.Graph, pred pathexpr.Pred, to []ssd.Label) *ssd.Graph{
	"relabel":  func(g *ssd.Graph, p pathexpr.Pred, to []ssd.Label) *ssd.Graph { return unql.RelabelWhere(g, p, to[0]) },
	"delete":   func(g *ssd.Graph, p pathexpr.Pred, _ []ssd.Label) *ssd.Graph { return unql.DeleteEdges(g, p) },
	"collapse": func(g *ssd.Graph, p pathexpr.Pred, _ []ssd.Label) *ssd.Graph { return unql.CollapseEdges(g, p) },
	"expand":   func(g *ssd.Graph, p pathexpr.Pred, to []ssd.Label) *ssd.Graph { return unql.ExpandEdges(g, p, to...) },
}

// transformStmt is one parsed restructuring command. The predicate and the
// targets may contain $parameters.
type transformStmt struct {
	verb   string
	text   string // the command after the verb, as written
	pred   pathexpr.Pred
	chain  []ssd.Label // the targets: one for relabel, the chain for expand
	chainP []string    // parameter name per target ("" = literal)
	params []string    // the predicate's parameters, then the targets'
}

func prepareTransform(s *Stmt, body string) error {
	t, err := parseTransform(body)
	if err != nil {
		return err
	}
	s.params, s.fe = t.params, t
	return nil
}

func parseTransform(src string) (*transformStmt, error) {
	lx := ssd.NewScanner(transformSyntax, src)
	verb := strings.ToLower(lx.Text)
	if lx.Tok != ssd.TokIdent || transformVerbs[verb] == nil {
		return nil, lx.Errorf("unknown transform verb %q (want relabel|delete|collapse|expand)", lx.Text)
	}
	lx.Next()
	start := lx.Pos
	e, err := pathexpr.ParsePostfix(lx)
	if err != nil {
		return nil, err
	}
	atom, ok := e.(pathexpr.Atom)
	if !ok {
		return nil, fmt.Errorf("%s: offset %d: %s takes one label predicate", transformSyntax.Prefix, start, verb)
	}
	t := &transformStmt{verb: verb, text: strings.TrimSpace(src[start:]), pred: atom.Pred, params: pathexpr.Params(atom)}
	if verb == "relabel" || verb == "expand" {
		if lx.Tok != ssd.TokIdent || lx.Text != "to" {
			return nil, lx.Errorf("%s requires `to <label>`", verb)
		}
		for sep := true; sep; sep = lx.Tok == '.' {
			if len(t.chain) == 1 && verb == "relabel" {
				return nil, lx.Errorf("relabel takes exactly one target label")
			}
			lx.Next()
			l, name := ssd.Label{}, ""
			if lx.Tok == '$' {
				lx.Next()
				if lx.Tok != ssd.TokIdent {
					return nil, lx.Errorf("expected parameter name after $")
				}
				if name = lx.Text; !slices.Contains(t.params, name) {
					t.params = append(t.params, name)
				}
				lx.Next()
			} else if l, err = lx.Label(); err != nil {
				return nil, err
			}
			t.chain, t.chainP = append(t.chain, l), append(t.chainP, name)
		}
	}
	if lx.Tok != ssd.TokEOF {
		return nil, lx.Errorf("trailing input %q", lx.Text)
	}
	return t, nil
}

func (t *transformStmt) explain(*snapshot) (string, error) {
	return "transform: " + t.verb + " " + t.text + "\n", nil
}

func (t *transformStmt) open(context.Context, *snapshot, map[string]ssd.Label, *QueryTrace) (rowSource, error) {
	return nil, fmt.Errorf("core: transform statements produce no rows; use Exec")
}

// exec restructures the snapshot's graph with the parameters bound (bindArgs
// has checked that every one is).
func (t *transformStmt) exec(_ context.Context, snap *snapshot, vals map[string]ssd.Label) (*ssd.Graph, error) {
	bound, err := pathexpr.BindParams(pathexpr.Atom{Pred: t.pred}, vals)
	if err != nil {
		return nil, err
	}
	chain := append([]ssd.Label(nil), t.chain...)
	for i, name := range t.chainP {
		if name != "" {
			chain[i] = vals[name]
		}
	}
	return transformVerbs[t.verb](snap.g, bound.(pathexpr.Atom).Pred, chain), nil
}
