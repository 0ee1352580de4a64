package scan

import "pragformer/internal/lru"

// VerdictStore is the loop-verdict cache abstraction the scan pipeline
// reads through: content hash (HashSnippet of the canonically printed
// loop) to flattened Suggestion — at fleet scale most traffic hits loops
// someone already scanned, and a verdict computed once should be returned
// everywhere without another forward.
//
// Implementations: MemStore (bounded, in memory), FileStore (the
// persistent scan cache file) and the tier router's store, whose entries
// also hold a verdict's /suggest wire bytes.
//
// One store only ever holds verdicts of one (backend, model) pair:
// FileStore enforces it with its on-disk header, the router by rolling its
// store's generation whenever the pair changes.
type VerdictStore interface {
	// Get returns the stored verdict. The returned Suggestion is shared —
	// the store's own value, which a scan puts into its report as it is —
	// so callers must treat it as immutable (copy before mutating, as
	// Report.Stable does).
	Get(hash string) (*Suggestion, bool)
	// Put stores a verdict and takes ownership of it: the store keeps s
	// itself, so neither the caller nor anyone it shares s with may write
	// to it afterwards.
	Put(hash string, s *Suggestion)
}

// memStoreCap bounds NewMemStore: past it the least recently used verdict
// is evicted. DESIGN.md "Verdict store" has the measured bytes per verdict
// and the heap ceiling this sets.
const memStoreCap = 1 << 16

// MemStore is the in-memory VerdictStore: an lru.Cache of the verdicts put
// into it, each held as it was put.
type MemStore struct {
	cache *lru.Cache[*Suggestion]
}

// NewMemStore returns an empty store bounded at memStoreCap verdicts.
func NewMemStore() *MemStore { return newMemStore(memStoreCap) }

func newMemStore(capacity int) *MemStore {
	return &MemStore{lru.New[*Suggestion](capacity)}
}

// Get returns the verdict stored under hash.
func (s *MemStore) Get(hash string) (*Suggestion, bool) { return s.cache.Get(hash) }

// Put stores the verdict, taking ownership of it. Nil suggestions are
// ignored.
func (s *MemStore) Put(hash string, v *Suggestion) {
	if v != nil {
		s.cache.Put(hash, v)
	}
}

// Len is the number of verdicts held.
func (s *MemStore) Len() int { return s.cache.Len() }
