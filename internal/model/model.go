// Package model implements the AJAX page model of thesis chapter 2: the
// Transition Graph whose nodes are application states (DOM trees,
// identified by canonical content hash) and whose edges are transitions
// annotated with the triggering event's source element, event type,
// action, and modified targets.
package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

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

// Out returns the outgoing transitions of a state.
func (g *Graph) Out(id StateID) []*Transition { return g.adj[id] }

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

// graphWire is the gob wire format (exported fields only).
type graphWire struct {
	URL         string
	States      []*State
	Transitions []*Transition
	Initial     StateID
}

// GobEncode implements gob.GobEncoder.
func (g *Graph) GobEncode() ([]byte, error) {
	return gobEncode(graphWire{URL: g.URL, States: g.States, Transitions: g.Transitions, Initial: g.Initial})
}

// GobDecode implements gob.GobDecoder. A decoded graph is disk input
// (a journaled page, a published model file): one whose states are not
// numbered by position, or whose transitions or initial state lie
// outside them, is refused, because rebuild, PathTo and index.AddGraph
// look states up by StateID.
func (g *Graph) GobDecode(data []byte) error {
	var w graphWire
	if err := gobDecode(data, &w); err != nil {
		return err
	}
	if err := w.check(); err != nil {
		return err
	}
	g.URL = w.URL
	g.States = w.States
	g.Transitions = w.Transitions
	g.Initial = w.Initial
	g.rebuild()
	return nil
}

// check reports the first state, transition or initial state that
// breaks the graph's StateID invariants.
func (w *graphWire) check() error {
	n := StateID(len(w.States))
	for i, s := range w.States {
		if s == nil || s.ID != StateID(i) {
			return fmt.Errorf("model: graph %q: state %d is missing or numbered out of place", w.URL, i)
		}
	}
	for i, t := range w.Transitions {
		if t == nil || t.From < 0 || t.From >= n || t.To < 0 || t.To >= n {
			return fmt.Errorf("model: graph %q: transition %d is missing or leaves the %d states", w.URL, i, n)
		}
	}
	if w.Initial < 0 || w.Initial >= n {
		return fmt.Errorf("model: graph %q: initial state %d outside the %d states", w.URL, w.Initial, n)
	}
	return nil
}

// EncodeGraph serializes one graph to bytes — the payload format the
// checkpoint journal stores completed pages in. It reuses the gob wire
// format of SaveAll/LoadAll, so a journaled graph round-trips through
// exactly the code path the model files use.
func EncodeGraph(g *Graph) ([]byte, error) {
	data, err := gobEncode(g)
	if err != nil {
		return nil, fmt.Errorf("model: encode graph %s: %w", g.URL, err)
	}
	return data, nil
}

// DecodeGraph deserializes a graph encoded by EncodeGraph, rebuilding
// the derived lookup maps.
func DecodeGraph(data []byte) (*Graph, error) {
	var g Graph
	if err := gobDecode(data, &g); err != nil {
		return nil, fmt.Errorf("model: decode graph: %w", err)
	}
	return &g, nil
}

// ModelFileName is the file a crawl's application models are stored
// under, in a crawl's output root and in a published snapshot alike (the
// thesis serializes app models per partition, §6.3.2).
const ModelFileName = "ajaxmodels.gob"

// SaveAll writes a set of graphs to dir/ModelFileName.
func SaveAll(dir string, graphs []*Graph) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, ModelFileName))
	if err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(graphs); err != nil {
		f.Close()
		return fmt.Errorf("model: encode: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	return nil
}

// gobEncode/gobDecode serialize a value through a byte slice, used by the
// GobEncoder/GobDecoder implementations.
func gobEncode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// LoadAll reads the graphs stored in dir/ModelFileName.
func LoadAll(dir string) ([]*Graph, error) {
	f, err := os.Open(filepath.Join(dir, ModelFileName))
	if err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	defer f.Close()
	var graphs []*Graph
	if err := gob.NewDecoder(f).Decode(&graphs); err != nil {
		return nil, fmt.Errorf("model: decode: %w", err)
	}
	return graphs, nil
}
