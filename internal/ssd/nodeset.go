package ssd

// NodeSet is a set of node ids: one bit per node, plus an undo log of the
// words its adds turned non-zero, so Clear costs what the set's last use
// marked rather than what the graph holds. It grows on demand to cover the
// largest id added, which lets one set outlive a store swap. It is the read
// path's visited-node scratch: the product traversal's planes and the query
// executor's per-atom destination dedup. The zero value is an empty set.
type NodeSet struct {
	bits  []uint64
	dirty []uint32 // words turned non-zero since the last Clear, once each
}

// Add inserts n (n >= 0), reporting whether it was absent. The fast path
// stays inlinable: growth lives in grow.
func (s *NodeSet) Add(n NodeID) bool {
	w := int(n >> 6)
	if w >= len(s.bits) {
		s.grow(w)
	}
	b := s.bits[w]
	m := uint64(1) << (n & 63)
	if b&m != 0 {
		return false
	}
	if b == 0 {
		s.dirty = append(s.dirty, uint32(w))
	}
	s.bits[w] = b | m
	return true
}

// Has reports whether n is in the set.
func (s *NodeSet) Has(n NodeID) bool {
	w := int(n >> 6)
	return w < len(s.bits) && s.bits[w]&(1<<(n&63)) != 0
}

// Clear empties the set, keeping its storage.
func (s *NodeSet) Clear() {
	for _, w := range s.dirty {
		s.bits[w] = 0
	}
	s.dirty = s.dirty[:0]
}

// grow extends the bitset to cover word w. Set bits and their log entries
// stay valid: words only gain zeroed successors.
func (s *NodeSet) grow(w int) {
	s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
}
