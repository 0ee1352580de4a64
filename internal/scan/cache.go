package scan

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pragformer/internal/ckpt"
)

// FileStore is the persistent scan cache behind the VerdictStore
// interface: loop hashes to verdicts, making re-scans incremental — a
// warm scan of an unchanged tree performs zero model forwards. The file
// is JSON with a small header; a version, backend, or model-fingerprint
// mismatch discards it at open (verdicts are not replayed across backends
// or models — the label-agreement gate compares backends, it does not
// assume them equal), and Flush goes through ckpt.WriteFileAtomic so an
// interrupted scan never leaves a torn cache.

// cacheVersion guards the on-disk layout. v2 added the tier, witness, S2S
// and attribution evidence to Suggestion; v3 added the structured race
// witnesses and conversion lists; v4 dropped the notes, and its agreeing
// verdicts carry the analysis' own directive, where a v3 entry may lack a
// clause the verdict depends on. Older entries differ from what the code
// now computes, so replaying them would make a warm scan's bytes diverge
// from a cold scan's — bump on every Suggestion field change.
const cacheVersion = 4

type cacheData struct {
	Version int                    `json:"version"`
	Backend string                 `json:"backend,omitempty"`
	Model   string                 `json:"model,omitempty"`
	Entries map[string]*Suggestion `json:"entries"`
}

// FileStore is a file-backed VerdictStore: an unbounded MemStore (the file
// describes one tree, which sizes it) loaded at open, plus Flush, which
// persists the union of loaded and freshly put verdicts.
type FileStore struct {
	*MemStore
	path    string
	backend string
	modelID string
}

var _ VerdictStore = (*FileStore)(nil)

// OpenFileStore loads the cache at path. A missing file, an unreadable
// file, a layout-version bump, or a backend/model mismatch all yield an
// empty store — stale caches cost a re-scan, never a wrong report.
func OpenFileStore(path, backend, modelID string) (*FileStore, error) {
	fs := &FileStore{MemStore: newMemStore(0), path: path, backend: backend, modelID: modelID}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fs, nil
		}
		return nil, fmt.Errorf("scan: read cache: %w", err)
	}
	var cf cacheData
	if err := json.Unmarshal(data, &cf); err != nil {
		return fs, nil //nolint:nilerr // corrupt cache = cold cache
	}
	if cf.Version != cacheVersion || cf.Backend != backend || cf.Model != modelID || cf.Entries == nil {
		return fs, nil
	}
	for h, s := range cf.Entries {
		fs.Put(h, s)
	}
	return fs, nil
}

// Flush atomically rewrites the cache file with every resident verdict.
func (fs *FileStore) Flush() error {
	entries := make(map[string]*Suggestion, fs.Len())
	fs.cache.Range(func(h string, s *Suggestion) { entries[h] = s })
	cf := cacheData{Version: cacheVersion, Backend: fs.backend, Model: fs.modelID, Entries: entries}
	err := ckpt.WriteFileAtomic(fs.path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(cf)
	})
	if err != nil {
		return fmt.Errorf("scan: write cache: %w", err)
	}
	return nil
}
