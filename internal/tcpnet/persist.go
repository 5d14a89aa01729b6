package tcpnet

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// snapshotFormat versions the on-disk layout. Format 4 stores tagged
// values exactly as the store holds them (see frame.go for the tags), its
// buckets in lht's bucket wire format 3 (compact labels) under the '#'
// strings of their names. The formats before it (refusedFormats) are
// refused, as is a snapshot that holds a value in the retired gob form: a
// node could not serve any of them.
const snapshotFormat = 4

// refusedFormats says what each earlier snapshot format held that a node
// of this one cannot serve.
var refusedFormats = map[int]string{
	1: "bare gob values",
	2: "buckets in bucket wire format 1",
	3: "buckets in bucket wire format 2",
}

type snapshot struct {
	Format int
	Store  map[string][]byte
}

// SaveSnapshot writes the node's store to path atomically (temp file,
// synced, then renamed), so an lht-node can restart without losing its
// shard. Values are already serialized bytes, making the snapshot format
// trivially stable.
func (s *Server) SaveSnapshot(path string) error {
	s.mu.Lock()
	snap := snapshot{Format: snapshotFormat, Store: make(map[string][]byte, len(s.store))}
	for k, e := range s.store {
		cp := make([]byte, len(e.val))
		copy(cp, e.val)
		snap.Store[k] = cp
	}
	s.mu.Unlock()
	return writeSnapshot(path, snap)
}

// writeSnapshot encodes snap to a temp file beside path, syncs it and
// renames it over path.
func writeSnapshot(path string, snap snapshot) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".lht-node-*")
	if err != nil {
		return fmt.Errorf("tcpnet: snapshot temp: %w", err)
	}
	defer func() { _ = os.Remove(tmp.Name()) }()
	if err := gob.NewEncoder(tmp).Encode(snap); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("tcpnet: snapshot encode: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("tcpnet: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("tcpnet: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("tcpnet: snapshot rename: %w", err)
	}
	return nil
}

// LoadSnapshot replaces the node's store with the snapshot at path. A
// missing file is not an error - it is simply a fresh node. A snapshot
// the node cannot serve is refused whole, and the store is left as it was.
func (s *Server) LoadSnapshot(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("tcpnet: snapshot open: %w", err)
	}
	defer func() { _ = f.Close() }()
	var snap snapshot
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return fmt.Errorf("tcpnet: snapshot decode: %w", err)
	}
	if held, ok := refusedFormats[snap.Format]; ok {
		return fmt.Errorf("tcpnet: snapshot format %d holds %s; this node reads format %d, buckets in bucket wire format 3", snap.Format, held, snapshotFormat)
	}
	if snap.Format != snapshotFormat {
		return fmt.Errorf("tcpnet: snapshot format %d, want %d", snap.Format, snapshotFormat)
	}
	for k, v := range snap.Store {
		if in := innerValue(v); len(in) > 0 && in[0] == tagRetired {
			return fmt.Errorf("tcpnet: snapshot key %q holds a value in the retired gob form (tag %d)", k, tagRetired)
		}
	}
	store := make(map[string]entry, len(snap.Store))
	for k, v := range snap.Store {
		store[k] = entry{k, v}
	}
	s.mu.Lock()
	s.store = store
	s.mu.Unlock()
	return nil
}
