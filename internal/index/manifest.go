package index

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ajaxcrawl/internal/model"
)

// Snapshot layout: a serving snapshot is one directory holding immutable
// index shard files (state text for snippets included), optionally the
// application models result reconstruction replays, and a manifest.json
// naming them all. The manifest is written last and atomically (temp file + rename),
// so a reader that can load a manifest can load everything it points at;
// a crash mid-save leaves no manifest and therefore no half-snapshot. A
// new save into the same directory gets a fresh ID, which is what the
// serving daemon's -watch loop keys hot swaps on.

const (
	// ManifestFileName is the snapshot manifest file.
	ManifestFileName = "manifest.json"
	// ManifestVersion is the current manifest format version. Version 1
	// snapshots held gob shards; they are refused, not converted.
	ManifestVersion = 2
)

// ShardEntry describes one shard file of a snapshot.
type ShardEntry struct {
	// File is the shard's file name, relative to the snapshot directory.
	File string `json:"file"`
	// Docs, States and Postings are the shard's sizes, recorded so a
	// loader can cross-check what it read against what was written.
	Docs     int `json:"docs"`
	States   int `json:"states"`
	Postings int `json:"postings"`
	// Terms is the shard's vocabulary size (distinct indexed terms).
	// Routers and fleet tooling read it to reason about df skew across
	// shards without loading the shard itself.
	Terms int `json:"terms,omitempty"`
}

// Manifest is the versioned snapshot descriptor.
type Manifest struct {
	// Version is the manifest format version (ManifestVersion).
	Version int `json:"version"`
	// ID uniquely identifies this snapshot generation; every save mints
	// a new one. The serving daemon swaps engines when it changes.
	ID string `json:"id"`
	// CreatedAt is when the snapshot was written.
	CreatedAt time.Time `json:"created_at"`
	// Shards lists the shard files in crawl URL order, the order
	// LoadSnapshot concatenates them in.
	Shards []ShardEntry `json:"shards"`
	// Models is the application-models file name (model.ModelFileName),
	// or "" when the snapshot carries indexes only. Only result
	// reconstruction and the model tools read it; serving never does.
	Models string `json:"models,omitempty"`
	// TotalDocs and TotalStates aggregate the shard sizes.
	TotalDocs   int `json:"total_docs"`
	TotalStates int `json:"total_states"`
	// TotalTerms sums the per-shard vocabulary sizes (an upper bound on
	// the union vocabulary: shards can share terms).
	TotalTerms int `json:"total_terms,omitempty"`
}

// computeID derives the snapshot ID from the shard inventory and the
// creation time: identical content re-saved still gets a distinct ID, so
// every completed save reads as a new generation to watchers.
func (m *Manifest) computeID() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d@%d:%s\n", m.Version, m.CreatedAt.UnixNano(), m.Models)
	for _, s := range m.Shards {
		fmt.Fprintf(h, "%s:%d:%d:%d:%d\n", s.File, s.Docs, s.States, s.Postings, s.Terms)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// WriteManifest writes m to dir/manifest.json atomically: the JSON is
// staged in a temp file in the same directory and renamed into place, so
// a concurrent -watch reader sees either the old manifest or the new
// one, never a torn write.
func WriteManifest(dir string, m *Manifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("index: manifest: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ManifestFileName+".tmp-*")
	if err != nil {
		return fmt.Errorf("index: manifest: %w", err)
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("index: manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("index: manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, ManifestFileName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("index: manifest: %w", err)
	}
	return nil
}

// LoadManifest reads and validates dir/manifest.json.
func LoadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestFileName))
	if err != nil {
		return nil, fmt.Errorf("index: manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("index: manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("index: manifest: unsupported version %d (this build reads %d): re-publish the snapshot with ajaxcrawl -save-index",
			m.Version, ManifestVersion)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("index: manifest: no shards")
	}
	for _, s := range m.Shards {
		// Shard files must stay inside the snapshot directory; a
		// manifest is disk input and gets no path traversal.
		if s.File == "" || s.File != filepath.Base(s.File) || strings.HasPrefix(s.File, ".") {
			return nil, fmt.Errorf("index: manifest: bad shard file name %q", s.File)
		}
	}
	if m.Models != "" && (m.Models != filepath.Base(m.Models) || strings.HasPrefix(m.Models, ".")) {
		return nil, fmt.Errorf("index: manifest: bad models file name %q", m.Models)
	}
	return &m, nil
}

// SaveSnapshot writes shards (and, when graphs is non-empty, the
// application models) into dir and then publishes the manifest. The
// shard order is preserved — it is the doc order of the loaded index.
// Graphs are stored sorted by URL so identical crawls produce
// byte-identical snapshots (modulo the manifest's ID and timestamp).
func SaveSnapshot(dir string, shards []*Index, graphs []*model.Graph) (*Manifest, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("index: snapshot: no shards to save")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("index: snapshot: %w", err)
	}
	m := &Manifest{
		Version:   ManifestVersion,
		CreatedAt: time.Now().UTC(),
	}
	for i, shard := range shards {
		name := fmt.Sprintf("shard-%04d.bin", i)
		if err := shard.Save(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
		m.Shards = append(m.Shards, ShardEntry{
			File:     name,
			Docs:     shard.NumDocs(),
			States:   shard.TotalStates,
			Postings: shard.NumPostings(),
			Terms:    shard.NumTerms(),
		})
		m.TotalDocs += shard.NumDocs()
		m.TotalStates += shard.TotalStates
		m.TotalTerms += shard.NumTerms()
	}
	if len(graphs) > 0 {
		sorted := append([]*model.Graph(nil), graphs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].URL < sorted[j].URL })
		if err := model.SaveAll(dir, sorted); err != nil {
			return nil, fmt.Errorf("index: snapshot: %w", err)
		}
		m.Models = model.ModelFileName
	}
	m.ID = m.computeID()
	if err := WriteManifest(dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadSnapshot reads dir's manifest and decodes the shard files it lists
// into one index (loadFiles), returned as a one-element slice: all that
// serving needs, snippets included. A shard file is a crawl unit; a query
// walks one posting list per term. Models, when present, are loaded
// separately (model.LoadAll) by the callers that reconstruct states.
func LoadSnapshot(dir string) (*Manifest, []*Index, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	ix, err := loadFiles(dir, m)
	if err != nil {
		return nil, nil, err
	}
	return m, []*Index{ix}, nil
}

// check compares a shard file's sizes with the entry's record of them.
func (e ShardEntry) check(docs, states, terms int) error {
	if docs != e.Docs || states != e.States {
		return fmt.Errorf("has %d docs/%d states, manifest says %d/%d", docs, states, e.Docs, e.States)
	}
	if terms != e.Terms {
		return fmt.Errorf("has %d terms, manifest says %d", terms, e.Terms)
	}
	return nil
}
