package store

// Store is a quorum store whose last importer is gone; only its own
// test still calls it.
type Store struct{ vals map[string]string }

func New() *Store { return &Store{vals: map[string]string{}} }

func (s *Store) Put(k, v string) { s.vals[k] = v }
