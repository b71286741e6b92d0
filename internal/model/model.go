// Package model implements the AJAX page model of thesis chapter 2: the
// Transition Graph whose nodes are application states (DOM trees,
// identified by canonical content hash) and whose edges are transitions
// annotated with the triggering event's source element, event type,
// action, and modified targets.
package model

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ajaxcrawl/internal/codec"
	"ajaxcrawl/internal/dom"
)

// StateID identifies a state within one page's graph. The initial state
// is always 0.
type StateID int

// State is one application state: a snapshot of the page's DOM.
type State struct {
	ID   StateID
	Hash dom.Hash
	// Text is the visible text of the state (whitespace-collapsed) —
	// what the indexer tokenizes.
	Text string
	// Depth is the BFS distance from the initial state; AJAXRank decays
	// with it.
	Depth int
}

// Transition is one edge: invoking Event on the Source element while in
// From yields To. Action and Targets describe what changed (thesis
// Table 2.1 columns).
type Transition struct {
	From, To StateID
	// Source identifies the source element (id, or structural path).
	Source string
	// Event is the trigger type ("onclick", ...).
	Event string
	// Code is the handler source, kept so the state can be reconstructed
	// by replaying events (§5.4).
	Code string
	// SourcePath is the structural path of the source element in From.
	SourcePath string
	// Targets are the ids of elements whose content changed.
	Targets []string
	// Action summarizes the DOM mutation (e.g. "innerHTML").
	Action string
	// Probe is the input value typed into the source element for
	// form-driven transitions ("" for plain events). Replay fills the
	// field with this value before dispatching.
	Probe string
}

// Graph is the transition graph of one AJAX page (one URL).
type Graph struct {
	URL         string
	States      []*State
	Transitions []*Transition
	// Initial is the state built after onload (always 0 in practice).
	Initial StateID

	byHash map[dom.Hash]StateID
	adj    map[StateID][]*Transition
}

// NewGraph returns an empty graph for a URL.
func NewGraph(url string) *Graph {
	return &Graph{
		URL:    url,
		byHash: make(map[dom.Hash]StateID),
		adj:    make(map[StateID][]*Transition),
	}
}

// AddState inserts a state snapshot and returns its ID. If a state with
// the same hash already exists, that state's ID is returned and isNew is
// false — the duplicate-elimination point of the crawling algorithm
// (Alg. 3.1.1 lines 12-14).
func (g *Graph) AddState(h dom.Hash, text string, depth int) (id StateID, isNew bool) {
	if id, ok := g.byHash[h]; ok {
		return id, false
	}
	id = StateID(len(g.States))
	g.States = append(g.States, &State{ID: id, Hash: h, Text: text, Depth: depth})
	g.byHash[h] = id
	return id, true
}

// FindByHash returns the state with hash h, if any.
func (g *Graph) FindByHash(h dom.Hash) (StateID, bool) {
	id, ok := g.byHash[h]
	return id, ok
}

// State returns the state with the given ID, or nil.
func (g *Graph) State(id StateID) *State {
	if int(id) < 0 || int(id) >= len(g.States) {
		return nil
	}
	return g.States[id]
}

// AddTransition records an edge. Parallel edges (different events leading
// between the same pair of states) are kept: they carry distinct event
// annotations.
func (g *Graph) AddTransition(t *Transition) {
	g.Transitions = append(g.Transitions, t)
	g.adj[t.From] = append(g.adj[t.From], t)
}

// NumStates returns the number of distinct states.
func (g *Graph) NumStates() int { return len(g.States) }

// PathTo returns a shortest event path (sequence of transitions) from the
// initial state to target, or nil if unreachable. Result aggregation
// replays this path to reconstruct the state for the user (§5.4).
func (g *Graph) PathTo(target StateID) []*Transition {
	if target == g.Initial {
		return []*Transition{}
	}
	type hop struct {
		prev StateID
		via  *Transition
	}
	visited := map[StateID]hop{g.Initial: {}}
	queue := []StateID{g.Initial}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, t := range g.adj[cur] {
			if _, seen := visited[t.To]; seen {
				continue
			}
			visited[t.To] = hop{prev: cur, via: t}
			if t.To == target {
				// Reconstruct.
				var path []*Transition
				for at := target; at != g.Initial; {
					h := visited[at]
					path = append([]*Transition{h.via}, path...)
					at = h.prev
				}
				return path
			}
			queue = append(queue, t.To)
		}
	}
	return nil
}

// Stats summarizes a graph for reporting.
type Stats struct {
	URL         string
	States      int
	Transitions int
}

// Stats returns summary counts.
func (g *Graph) Stats() Stats {
	return Stats{URL: g.URL, States: len(g.States), Transitions: len(g.Transitions)}
}

// rebuild restores derived maps after deserialization.
func (g *Graph) rebuild() {
	g.byHash = make(map[dom.Hash]StateID, len(g.States))
	for _, s := range g.States {
		g.byHash[s.Hash] = s.ID
	}
	g.adj = make(map[StateID][]*Transition)
	for _, t := range g.Transitions {
		g.adj[t.From] = append(g.adj[t.From], t)
	}
}

// check reports the first state, transition or initial state that
// breaks the graph's StateID invariants. A graph on disk (a journaled
// page, a models file) is refused by it both ways: the encoder does not
// write one, and the decoder does not hand one out, because rebuild,
// PathTo and index.AddGraph look states up by StateID.
func (g *Graph) check() error {
	n := StateID(len(g.States))
	for i, s := range g.States {
		if s == nil || s.ID != StateID(i) {
			return fmt.Errorf("model: graph %q: state %d is missing or numbered out of place", g.URL, i)
		}
	}
	for i, t := range g.Transitions {
		if t == nil || t.From < 0 || t.From >= n || t.To < 0 || t.To >= n {
			return fmt.Errorf("model: graph %q: transition %d is missing or leaves the %d states", g.URL, i, n)
		}
	}
	if g.Initial < 0 || g.Initial >= n {
		return fmt.Errorf("model: graph %q: initial state %d outside the %d states", g.URL, g.Initial, n)
	}
	return nil
}

// A graph's wire form, in internal/codec's primitives. A state's ID is
// its position, so it is not written.
//
//	url string | initial uvarint
//	stateCount uvarint, per state: hash (32 bytes), text string, depth uvarint
//	transitionCount uvarint, per transition: from, to uvarint,
//	  source, event, code, sourcePath string,
//	  targetCount uvarint, targets string..., action, probe string
//
// The models file is magic "AJMG", a version byte, a graph count and
// that many graphs.
const (
	modelsMagic   = "AJMG"
	modelsVersion = 1
)

// encode writes g's wire form; g has passed check.
func (g *Graph) encode(e codec.Encoder) {
	e.String(g.URL)
	e.Uvarint(uint64(g.Initial))
	e.Uvarint(uint64(len(g.States)))
	for _, s := range g.States {
		e.Fixed(s.Hash[:])
		e.String(s.Text)
		e.Uvarint(uint64(s.Depth))
	}
	e.Uvarint(uint64(len(g.Transitions)))
	for _, t := range g.Transitions {
		e.Uvarint(uint64(t.From))
		e.Uvarint(uint64(t.To))
		e.String(t.Source)
		e.String(t.Event)
		e.String(t.Code)
		e.String(t.SourcePath)
		e.Uvarint(uint64(len(t.Targets)))
		for _, target := range t.Targets {
			e.String(target)
		}
		e.String(t.Action)
		e.String(t.Probe)
	}
}

// readGraph reads one graph's wire form, bounding every count and
// string before it allocates, then checks the graph and rebuilds its
// lookup maps. It returns nil with d failed on any error.
func readGraph(d *codec.Decoder) *Graph {
	g := &Graph{URL: d.String(), Initial: StateID(d.Uvarint())}
	n := d.Count("state")
	g.States = make([]*State, 0, codec.Prealloc(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		s := &State{ID: StateID(i)}
		d.Fixed(s.Hash[:])
		s.Text = d.String()
		s.Depth = int(d.Uvarint())
		g.States = append(g.States, s)
	}
	m := d.Count("transition")
	g.Transitions = make([]*Transition, 0, codec.Prealloc(m))
	for i := 0; i < m && d.Err() == nil; i++ {
		t := &Transition{From: StateID(d.Uvarint()), To: StateID(d.Uvarint()),
			Source: d.String(), Event: d.String(), Code: d.String(), SourcePath: d.String()}
		if k := d.Count("target"); k > 0 {
			t.Targets = make([]string, 0, codec.Prealloc(k))
			for j := 0; j < k && d.Err() == nil; j++ {
				t.Targets = append(t.Targets, d.String())
			}
		}
		t.Action, t.Probe = d.String(), d.String()
		g.Transitions = append(g.Transitions, t)
	}
	if d.Err() != nil {
		return nil
	}
	if err := g.check(); err != nil {
		d.Fail(err)
		return nil
	}
	g.rebuild()
	return g
}

// EncodeGraph serializes one graph to bytes — the payload format the
// checkpoint journal stores completed pages in, and the models file's
// per-graph record. A graph check refuses is not encoded.
func EncodeGraph(g *Graph) ([]byte, error) {
	if err := g.check(); err != nil {
		return nil, fmt.Errorf("model: encode graph %s: %w", g.URL, err)
	}
	var buf bytes.Buffer
	g.encode(codec.NewEncoder(&buf))
	return buf.Bytes(), nil
}

// DecodeGraph deserializes a graph encoded by EncodeGraph, rebuilding
// the derived lookup maps. The bytes are disk input: they must hold
// exactly one graph that check accepts.
func DecodeGraph(data []byte) (g *Graph, err error) {
	defer codec.Contain(&err, "model: decode graph")
	d := codec.NewDecoder(bytes.NewReader(data))
	g = readGraph(d)
	d.End()
	if d.Err() != nil {
		return nil, fmt.Errorf("model: decode graph: %w", d.Err())
	}
	return g, nil
}

// ModelFileName is the file a crawl's application models are stored
// under, in a crawl's output root and in a published snapshot alike (the
// thesis serializes app models per partition, §6.3.2). The .gob suffix
// is historical.
const ModelFileName = "ajaxmodels.gob"

// SaveAll writes a set of graphs to dir/ModelFileName, streaming them
// through one buffered writer. A graph check refuses fails the save
// before the file is touched.
func SaveAll(dir string, graphs []*Graph) error {
	for _, g := range graphs {
		if err := g.check(); err != nil {
			return fmt.Errorf("model: save: %w", err)
		}
	}
	if err := distinctURLs(graphs); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	err := codec.WriteFile(filepath.Join(dir, ModelFileName), modelsMagic, modelsVersion, func(e codec.Encoder) {
		e.Uvarint(uint64(len(graphs)))
		for _, g := range graphs {
			g.encode(e)
		}
	})
	if err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	return nil
}

// LoadAll reads the graphs stored in dir/ModelFileName.
func LoadAll(dir string) ([]*Graph, error) {
	path := filepath.Join(dir, ModelFileName)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	defer f.Close()
	graphs, err := readModels(f)
	if err != nil {
		return nil, fmt.Errorf("model: load %s: %w", path, err)
	}
	return graphs, nil
}

// readModels reads a models file from untrusted bytes: a file of another
// format or build, a bound broken, a graph check refuses, a second graph
// of one URL or a byte past the last graph fails it.
func readModels(r io.Reader) (graphs []*Graph, err error) {
	defer codec.Contain(&err, "decode")
	d := codec.NewDecoder(r)
	d.Header(modelsMagic, modelsVersion, "written by another build; crawl again to rewrite it")
	n := d.Count("graph")
	graphs = make([]*Graph, 0, codec.Prealloc(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		graphs = append(graphs, readGraph(d))
	}
	d.End()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if err := distinctURLs(graphs); err != nil {
		return nil, err
	}
	return graphs, nil
}

// distinctURLs refuses a second graph of one URL: the models file holds
// one application model per page, and an index holds one document per URL.
func distinctURLs(graphs []*Graph) error {
	seen := make(map[string]struct{}, len(graphs))
	for _, g := range graphs {
		if _, dup := seen[g.URL]; dup {
			return fmt.Errorf("duplicate graph URL %q", g.URL)
		}
		seen[g.URL] = struct{}{}
	}
	return nil
}
