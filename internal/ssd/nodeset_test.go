package ssd

import "testing"

// FuzzNodeSet runs a byte-coded sequence of Add, Has and Clear against a
// map model. Each op is three bytes: the op, then a node id below 4096 (64
// words), so sequences grow the set, revisit words and clear them. After
// every Clear no word may stay set, and no word is logged twice between
// clears. The seeds run as a plain test.
//
//	go test -run=NONE -fuzz=FuzzNodeSet -fuzztime=20s ./internal/ssd
func FuzzNodeSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 63, 0, 0, 64, 0, 1, 64, 0, 2, 0, 0, 1, 63, 0, 0, 63, 0})
	f.Add([]byte{0, 255, 15, 0, 1, 0, 2, 0, 0, 0, 1, 0, 1, 255, 15, 0, 255, 15})
	f.Add([]byte{0, 5, 1, 0, 6, 1, 0, 5, 1, 2, 0, 0, 2, 0, 0, 0, 5, 1, 1, 6, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s NodeSet
		model := map[NodeID]bool{}
		for i := 0; i+2 < len(ops); i += 3 {
			n := NodeID(ops[i+1]) | NodeID(ops[i+2]&0x0f)<<8
			switch ops[i] % 3 {
			case 0:
				if got := s.Add(n); got != !model[n] {
					t.Fatalf("op %d: Add(%d) = %v, model has it: %v", i/3, n, got, model[n])
				}
				model[n] = true
			case 1:
				if got := s.Has(n); got != model[n] {
					t.Fatalf("op %d: Has(%d) = %v, want %v", i/3, n, got, model[n])
				}
			case 2:
				s.Clear()
				clear(model)
				for w, b := range s.bits {
					if b != 0 {
						t.Fatalf("op %d: word %d = %#x after Clear", i/3, w, b)
					}
				}
			}
			logged := map[uint32]bool{}
			for _, w := range s.dirty {
				if logged[w] {
					t.Fatalf("op %d: word %d logged twice", i/3, w)
				}
				logged[w] = true
			}
		}
		for n := NodeID(0); n < 4096; n++ {
			if s.Has(n) != model[n] {
				t.Fatalf("end: Has(%d) = %v, want %v", n, s.Has(n), model[n])
			}
		}
	})
}
