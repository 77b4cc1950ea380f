package store

// ForceCollisions maps every key s indexes from now on to one slot, so an
// external test can drive the service over colliding store keys.
func ForceCollisions(s *Store) { s.slotMask = 0 }
