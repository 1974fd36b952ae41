package stats

// OverlayLen exposes the overlay size so the external property test can
// see folds happen.
func OverlayLen(s *Stats) int { return len(s.over) }
