// Package mutate is the write path of the system: the versioned update
// subsystem layered between ssd.Graph and core.Database. Buneman's tutorial
// stresses that semistructured data is schema-less and self-describing
// precisely because it evolves; this package makes evolution first-class
// instead of the clone-the-world edits of the unql operators.
//
// It has three parts:
//
//   - a mutation log: typed records (AddNode, AddEdge, DeleteEdge, Relabel,
//     SetOID, SetRoot) gathered into Batches, with a compact binary encoding
//     reusing internal/storage's codec conventions (codec.go);
//   - batch application with copy-on-write of touched adjacency slices
//     (ApplyCOW), producing the edge Delta that drives incremental
//     maintenance of indexes and DataGuides;
//   - an append-only write-ahead log (wal.go) with Open/Replay/Append/
//     TruncatePrefix, so a snapshot plus its WAL replays to exactly the
//     in-memory graph, and a checkpoint drops exactly the prefix the next
//     snapshot folded in.
//
// Batches are built with Begin and published with Commit through
// core.Database, which logs every batch before publishing it.
//
// A small text script format (script.go) exposes the record types to the
// ssdq CLI.
package mutate

import (
	"fmt"
	"math"

	"repro/internal/ssd"
)

// Op discriminates mutation record types.
type Op uint8

// The mutation record types. Values are part of the WAL wire format; never
// reorder them.
const (
	OpAddNode Op = iota + 1
	OpAddEdge
	OpDeleteEdge
	OpRelabel
	OpSetOID
	OpSetRoot
)

func (op Op) String() string {
	switch op {
	case OpAddNode:
		return "addnode"
	case OpAddEdge:
		return "addedge"
	case OpDeleteEdge:
		return "deledge"
	case OpRelabel:
		return "relabel"
	case OpSetOID:
		return "setoid"
	case OpSetRoot:
		return "setroot"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Rec is one typed mutation record. Which fields are meaningful depends on
// Op:
//
//	AddNode               (none; allocates the next NodeID)
//	AddEdge, DeleteEdge   From, Label, To
//	Relabel               From, Old → Label (all edges out of From labeled Old)
//	SetOID                From, OID
//	SetRoot               From
type Rec struct {
	Op    Op
	From  ssd.NodeID
	To    ssd.NodeID
	Label ssd.Label
	Old   ssd.Label
	OID   string
}

// Batch is an ordered sequence of mutation records built against a base
// graph version. AddNode allocates IDs continuing the base graph's dense
// numbering, so a batch replays deterministically; the base node count is
// recorded (and encoded in the WAL) to detect application against a
// different version.
type Batch struct {
	baseNodes int
	added     int
	recs      []Rec
}

// NewBatch starts an empty batch against the current version of base.
func NewBatch(base *ssd.Graph) *Batch { return newBatchSized(base.NumNodes()) }

func newBatchSized(baseNodes int) *Batch { return &Batch{baseNodes: baseNodes} }

// Len returns the number of records in the batch.
func (b *Batch) Len() int { return len(b.recs) }

// Recs exposes the records (read-only) for inspection and logging.
func (b *Batch) Recs() []Rec { return b.recs }

// BaseNodes returns the node count of the graph version the batch was built
// against.
func (b *Batch) BaseNodes() int { return b.baseNodes }

// AddNode records a node allocation and returns the NodeID it will receive
// when the batch is applied.
func (b *Batch) AddNode() ssd.NodeID {
	b.recs = append(b.recs, Rec{Op: OpAddNode})
	b.added++
	return ssd.NodeID(b.baseNodes + b.added - 1)
}

// AddEdge records an edge addition.
func (b *Batch) AddEdge(from ssd.NodeID, l ssd.Label, to ssd.NodeID) error {
	if err := b.checkNode(from); err != nil {
		return err
	}
	if err := b.checkNode(to); err != nil {
		return err
	}
	if err := checkLabel(l); err != nil {
		return err
	}
	b.recs = append(b.recs, Rec{Op: OpAddEdge, From: from, Label: l, To: to})
	return nil
}

// DeleteEdge records removal of the first from → (l) → to edge (label
// identity, matching ssd.Graph.DeleteEdge). Deleting an absent edge is a
// no-op at apply time.
func (b *Batch) DeleteEdge(from ssd.NodeID, l ssd.Label, to ssd.NodeID) error {
	if err := b.checkNode(from); err != nil {
		return err
	}
	if err := b.checkNode(to); err != nil {
		return err
	}
	if err := checkLabel(l); err != nil {
		return err
	}
	b.recs = append(b.recs, Rec{Op: OpDeleteEdge, From: from, Label: l, To: to})
	return nil
}

// Relabel records rewriting every edge out of from labeled old to new.
func (b *Batch) Relabel(from ssd.NodeID, old, new ssd.Label) error {
	if err := b.checkNode(from); err != nil {
		return err
	}
	if err := checkLabel(old); err != nil {
		return err
	}
	if err := checkLabel(new); err != nil {
		return err
	}
	b.recs = append(b.recs, Rec{Op: OpRelabel, From: from, Old: old, Label: new})
	return nil
}

// SetOID records assigning an OEM object identity to a node.
func (b *Batch) SetOID(n ssd.NodeID, id string) error {
	if err := b.checkNode(n); err != nil {
		return err
	}
	b.recs = append(b.recs, Rec{Op: OpSetOID, From: n, OID: id})
	return nil
}

// SetRoot records moving the distinguished root.
func (b *Batch) SetRoot(n ssd.NodeID) error {
	if err := b.checkNode(n); err != nil {
		return err
	}
	b.recs = append(b.recs, Rec{Op: OpSetRoot, From: n})
	return nil
}

func (b *Batch) checkNode(n ssd.NodeID) error {
	if n < 0 || int(n) >= b.baseNodes+b.added {
		return fmt.Errorf("mutate: node %d out of range [0,%d)", n, b.baseNodes+b.added)
	}
	return nil
}

// checkLabel rejects a NaN float label. NaN never equals itself, so no edge
// could be deleted or relabeled by it and no map keyed by label (the label
// index, the statistics) could find it again.
func checkLabel(l ssd.Label) error {
	if f, ok := l.FloatVal(); ok && math.IsNaN(f) {
		return fmt.Errorf("mutate: NaN is not a label")
	}
	return nil
}

func (b *Batch) hasAddNode() bool { return b.added > 0 }

// Result summarizes one applied batch for derived-structure maintenance.
type Result struct {
	// Delta lists the edge occurrences added and removed, in application
	// order (a relabel contributes one removal and one addition per edge),
	// and the distinct-source changes those edits made.
	Delta ssd.Delta
	// NodesAdded counts fresh node allocations.
	NodesAdded int
	// RootChanged reports that SetRoot moved the root to a different node —
	// every root-anchored derived structure (the DataGuide) is then stale
	// beyond repair by the delta.
	RootChanged bool
	// OIDChanged reports that object identities were touched. Value
	// semantics ignores OIDs, but codecs and OEM exchange do not.
	OIDChanged bool
}

// ApplyCOW applies the batch copy-on-write: it returns a new graph sharing
// every untouched adjacency slice with g, which stays exactly as it was —
// readers holding g (the published MVCC snapshot) never observe a
// half-applied batch. The returned Result feeds incremental maintenance.
// The clone's node table is sized for the batch's new nodes, so a commit
// copies it once and never regrows it.
func ApplyCOW(g *ssd.Graph, b *Batch) (*ssd.Graph, Result, error) {
	h := g.CloneShared(b.added)
	res, err := applyRecs(h, b, true)
	if err != nil {
		return nil, Result{}, err
	}
	return h, res, nil
}

// ApplyInPlace applies the batch directly to g, which must not be visible to
// concurrent readers. It is the recovery path: WAL batches are replayed
// onto the freshly decoded snapshot graph before anything is published.
func ApplyInPlace(g *ssd.Graph, b *Batch) (Result, error) {
	return applyRecs(g, b, false)
}

func applyRecs(g *ssd.Graph, b *Batch, cow bool) (Result, error) {
	if b.hasAddNode() && g.NumNodes() != b.baseNodes {
		return Result{}, fmt.Errorf("mutate: batch allocated nodes against %d base nodes, graph has %d",
			b.baseNodes, g.NumNodes())
	}
	var res Result
	var touched map[ssd.NodeID]bool
	priv := func(n ssd.NodeID) {
		if !cow {
			return
		}
		if touched == nil {
			touched = make(map[ssd.NodeID]bool)
		}
		if !touched[n] {
			g.PrivatizeOut(n)
			touched[n] = true
		}
	}
	check := func(n ssd.NodeID) error {
		if n < 0 || int(n) >= g.NumNodes() {
			return fmt.Errorf("mutate: node %d out of range [0,%d)", n, g.NumNodes())
		}
		return nil
	}
	for _, r := range b.recs {
		switch r.Op {
		case OpAddNode:
			g.AddNode()
			res.NodesAdded++
		case OpAddEdge:
			if err := check(r.From); err != nil {
				return Result{}, err
			}
			if err := check(r.To); err != nil {
				return Result{}, err
			}
			priv(r.From)
			if !hasLabel(g.Out(r.From), r.Label) {
				res.Delta.Sources = append(res.Delta.Sources, ssd.SourceChange{Label: r.Label, N: 1})
			}
			g.AddEdge(r.From, r.Label, r.To)
			res.Delta.Added = append(res.Delta.Added, ssd.EdgeRec{From: r.From, Label: r.Label, To: r.To})
		case OpDeleteEdge:
			if err := check(r.From); err != nil {
				return Result{}, err
			}
			if err := check(r.To); err != nil {
				return Result{}, err
			}
			priv(r.From)
			if g.DeleteEdge(r.From, r.Label, r.To) {
				res.Delta.Removed = append(res.Delta.Removed, ssd.EdgeRec{From: r.From, Label: r.Label, To: r.To})
				if !hasLabel(g.Out(r.From), r.Label) {
					res.Delta.Sources = append(res.Delta.Sources, ssd.SourceChange{Label: r.Label, N: -1})
				}
			}
		case OpRelabel:
			if err := check(r.From); err != nil {
				return Result{}, err
			}
			priv(r.From)
			hadNew := false
			for _, e := range g.Out(r.From) {
				if e.Label == r.Old {
					res.Delta.Removed = append(res.Delta.Removed, ssd.EdgeRec{From: r.From, Label: r.Old, To: e.To})
					res.Delta.Added = append(res.Delta.Added, ssd.EdgeRec{From: r.From, Label: r.Label, To: e.To})
				} else if e.Label == r.Label {
					hadNew = true
				}
			}
			if g.Relabel(r.From, r.Old, r.Label) > 0 && r.Old != r.Label {
				// From lost every Old edge; it gained its first Label edge
				// unless it already had one.
				res.Delta.Sources = append(res.Delta.Sources, ssd.SourceChange{Label: r.Old, N: -1})
				if !hadNew {
					res.Delta.Sources = append(res.Delta.Sources, ssd.SourceChange{Label: r.Label, N: 1})
				}
			}
		case OpSetOID:
			if err := check(r.From); err != nil {
				return Result{}, err
			}
			g.SetOID(r.From, r.OID)
			res.OIDChanged = true
		case OpSetRoot:
			if err := check(r.From); err != nil {
				return Result{}, err
			}
			if g.Root() != r.From {
				res.RootChanged = true
			}
			g.SetRoot(r.From)
		default:
			return Result{}, fmt.Errorf("mutate: unknown op %d", r.Op)
		}
	}
	return res, nil
}

// hasLabel reports whether es holds an edge labeled l (label identity).
func hasLabel(es []ssd.Edge, l ssd.Label) bool {
	for _, e := range es {
		if e.Label == l {
			return true
		}
	}
	return false
}
