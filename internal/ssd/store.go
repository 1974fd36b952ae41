package ssd

// This file is the storage seam of §4: the read surface the traversal,
// index, dataguide, and query layers actually pull, factored out of the
// concrete in-memory Graph so an out-of-core paged store can stand behind
// the same iterators. The interface is deliberately narrow — forward
// adjacency only. Reverse edges, mutation, grafting, and OIDs stay on
// *Graph: they are writer-side or whole-graph concerns. Backward index
// plans verify against the label index, not the store.

// GraphStore is the read-only adjacency surface query evaluation pulls:
// everything is derived from the root, the node count, and per-node
// forward edges. *Graph implements it natively; storage.PageStore serves
// the same surface from fixed-size disk pages through a buffer pool.
//
// Implementations must be safe for concurrent readers. Returned slices
// are owned by the store and must not be mutated; they remain valid
// indefinitely (a paged store's decoded records are garbage-collected,
// not recycled, so eviction never invalidates an escaped slice).
type GraphStore interface {
	// Root returns the distinguished root node.
	Root() NodeID
	// NumNodes returns the number of allocated nodes; IDs are dense in
	// [0, NumNodes).
	NumNodes() int
	// Out returns the outgoing edges of n. Callers must not mutate it.
	Out(n NodeID) []Edge
}

// Compile-time check: the in-memory graph is the default GraphStore.
var _ GraphStore = (*Graph)(nil)

// StoreAccessor is a pinning read handle on a GraphStore: the same read
// surface, plus a Release that drops whatever pages the accessor holds
// pinned. Iterator hot paths (one executor, one goroutine) read through
// an accessor so repeated touches of a clustered page skip the buffer
// pool entirely; Release runs at cursor close.
//
// An accessor is single-goroutine; Release is idempotent.
type StoreAccessor interface {
	GraphStore
	// Release unpins every page the accessor holds and resets it.
	Release()
}

// AccessorProvider is implemented by stores whose accessors actually pin
// pages (the paged store). Plain in-memory stores have nothing to pin and
// need not implement it.
type AccessorProvider interface {
	// Accessor returns a fresh pinning read handle. The caller owns it
	// and must Release it.
	//
	//ssd:mustunpin
	Accessor() StoreAccessor
}

// AccessorFor returns a read accessor for st: the store's own pinning
// accessor when it provides one, otherwise a zero-cost pass-through whose
// Release is a no-op. The caller must Release the result on every path.
//
//ssd:mustunpin
func AccessorFor(st GraphStore) StoreAccessor {
	if ap, ok := st.(AccessorProvider); ok {
		return ap.Accessor()
	}
	return nopAccessor{st}
}

// nopAccessor adapts a store with no pinning (the in-memory graph) to the
// accessor surface.
type nopAccessor struct{ GraphStore }

func (nopAccessor) Release() {}

// ReachableFrom returns the set of nodes accessible from start by forward
// traversal, as a dense boolean slice indexed by NodeID, over any store. On
// a paged store the DFS order matches the clustered layout, so the scan is
// near-sequential.
func ReachableFrom(st GraphStore, start NodeID) []bool {
	seen := make([]bool, st.NumNodes())
	if int(start) < 0 || int(start) >= len(seen) {
		return seen
	}
	stack := []NodeID{start}
	seen[start] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range st.Out(n) {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}
