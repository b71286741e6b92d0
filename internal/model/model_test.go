package model

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"ajaxcrawl/internal/codec"
	"ajaxcrawl/internal/dom"
)

func h(b byte) dom.Hash {
	var out dom.Hash
	out[0] = b
	return out
}

// lineGraph builds 0 -> 1 -> 2 -> 3 with next events plus a back edge
// 2 -> 1 (prev) and a duplicate-producing jump 0 -> 2.
func lineGraph() *Graph {
	g := NewGraph("/watch?v=test")
	for i := 0; i < 4; i++ {
		g.AddState(h(byte(i)), "text of state", i)
	}
	g.AddTransition(&Transition{From: 0, To: 1, Source: "nextPage", Event: "onclick", Code: "load(2)"})
	g.AddTransition(&Transition{From: 1, To: 2, Source: "nextPage", Event: "onclick", Code: "load(3)"})
	g.AddTransition(&Transition{From: 2, To: 3, Source: "nextPage", Event: "onclick", Code: "load(4)"})
	g.AddTransition(&Transition{From: 2, To: 1, Source: "prevPage", Event: "onclick", Code: "load(2)"})
	g.AddTransition(&Transition{From: 0, To: 2, Source: "page3", Event: "onclick", Code: "load(3)"})
	return g
}

func TestAddStateDeduplicates(t *testing.T) {
	g := NewGraph("u")
	id0, new0 := g.AddState(h(1), "a", 0)
	id1, new1 := g.AddState(h(2), "b", 1)
	dup, newDup := g.AddState(h(1), "a again", 5)
	if !new0 || !new1 {
		t.Fatalf("fresh states must be new")
	}
	if newDup || dup != id0 {
		t.Fatalf("duplicate hash must return the existing state (got %v new=%v)", dup, newDup)
	}
	if id1 != 1 || g.NumStates() != 2 {
		t.Fatalf("state ids/count wrong: %v %d", id1, g.NumStates())
	}
	if got, ok := g.FindByHash(h(2)); !ok || got != id1 {
		t.Fatalf("FindByHash = %v %v", got, ok)
	}
	if _, ok := g.FindByHash(h(9)); ok {
		t.Fatalf("FindByHash of unknown hash succeeded")
	}
}

func TestStateLookupBounds(t *testing.T) {
	g := lineGraph()
	if g.State(0) == nil || g.State(3) == nil {
		t.Fatalf("valid states missing")
	}
	if g.State(-1) != nil || g.State(99) != nil {
		t.Fatalf("out-of-range lookup should be nil")
	}
}

func TestOutEdges(t *testing.T) {
	g := lineGraph()
	if got := len(g.adj[0]); got != 2 {
		t.Fatalf("out(0) = %d", got)
	}
	if got := len(g.adj[2]); got != 2 {
		t.Fatalf("out(2) = %d", got)
	}
	if got := len(g.adj[3]); got != 0 {
		t.Fatalf("out(3) = %d", got)
	}
}

func TestPathTo(t *testing.T) {
	g := lineGraph()
	if p := g.PathTo(0); p == nil || len(p) != 0 {
		t.Fatalf("path to initial should be empty, got %v", p)
	}
	p := g.PathTo(3)
	if p == nil {
		t.Fatalf("state 3 unreachable")
	}
	// Shortest route is 0 -(jump)-> 2 -> 3.
	if len(p) != 2 || p[0].To != 2 || p[1].To != 3 {
		t.Fatalf("path = %v", transitionsTo(p))
	}
	// From must chain.
	if p[0].From != 0 || p[1].From != 2 {
		t.Fatalf("path froms wrong: %v", transitionsTo(p))
	}
	// Unreachable state.
	g2 := NewGraph("u")
	g2.AddState(h(1), "", 0)
	g2.AddState(h(2), "", 0)
	if g2.PathTo(1) != nil {
		t.Fatalf("unreachable state should have nil path")
	}
}

func transitionsTo(ts []*Transition) []StateID {
	out := make([]StateID, len(ts))
	for i, t := range ts {
		out[i] = t.To
	}
	return out
}

func TestStats(t *testing.T) {
	g := lineGraph()
	st := g.Stats()
	if st.States != 4 || st.Transitions != 5 || st.URL != "/watch?v=test" {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g1 := lineGraph()
	g2 := NewGraph("/watch?v=two")
	g2.AddState(h(7), "single", 0)
	if err := SaveAll(dir, []*Graph{g1, g2}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %d graphs", len(loaded))
	}
	l := loaded[0]
	if l.URL != g1.URL || l.NumStates() != g1.NumStates() || len(l.Transitions) != len(g1.Transitions) {
		t.Fatalf("round trip lost data: %+v", l.Stats())
	}
	// Derived structures must be rebuilt: hash index and adjacency.
	if id, ok := l.FindByHash(h(2)); !ok || id != 2 {
		t.Fatalf("hash index not rebuilt")
	}
	if len(l.adj[0]) != 2 {
		t.Fatalf("adjacency not rebuilt")
	}
	if p := l.PathTo(3); len(p) != 2 {
		t.Fatalf("PathTo after reload = %v", p)
	}
	// State text survives.
	if l.State(0).Text != "text of state" {
		t.Fatalf("state text lost")
	}
}

// TestDecodeGraphRejectsBrokenIDs: a graph whose StateIDs do not hold
// together is neither written nor read. EncodeGraph and SaveAll refuse
// it, and where the break survives onto the wire — a transition or the
// initial state outside the states; the wire carries neither state IDs
// nor nil rows — DecodeGraph refuses the bytes the bare encoder writes.
func TestDecodeGraphRejectsBrokenIDs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		onWire bool
		mutate func(g *Graph)
	}{
		{"state numbered out of place", false, func(g *Graph) { g.States[2].ID = 3 }},
		{"negative state ID", false, func(g *Graph) { g.States[0].ID = -1 }},
		{"transition from past the states", true, func(g *Graph) { g.Transitions[0].From = 4 }},
		{"transition to a negative state", true, func(g *Graph) { g.Transitions[3].To = -1 }},
		{"transition to past the states", true, func(g *Graph) { g.Transitions[4].To = 99 }},
		{"initial past the states", true, func(g *Graph) { g.Initial = 4 }},
		{"initial of a graph with no states", true, func(g *Graph) { g.States, g.Transitions = nil, nil }},
		{"nil state", false, func(g *Graph) { g.States[1] = nil }},
		{"nil transition", false, func(g *Graph) { g.Transitions[1] = nil }},
	} {
		g := lineGraph()
		tc.mutate(g)
		if _, err := EncodeGraph(g); err == nil {
			t.Errorf("%s: encoded", tc.name)
		}
		dir := t.TempDir()
		if err := SaveAll(dir, []*Graph{g}); err == nil {
			t.Errorf("%s: saved", tc.name)
		} else if _, err := os.Stat(filepath.Join(dir, ModelFileName)); !os.IsNotExist(err) {
			t.Errorf("%s: a refused save left a file behind (%v)", tc.name, err)
		}
		if tc.onWire {
			var buf bytes.Buffer
			g.encode(codec.NewEncoder(&buf))
			if _, err := DecodeGraph(buf.Bytes()); err == nil {
				t.Errorf("%s: decoded", tc.name)
			}
		}
	}
	if data, err := EncodeGraph(lineGraph()); err != nil {
		t.Fatal(err)
	} else if _, err := DecodeGraph(data); err != nil {
		t.Fatalf("a sound graph was refused: %v", err)
	}
}

// TestModelsFileFromAnotherBuild: a models file the gob-era build wrote
// and one carrying another version of this format are refused, the
// second as written by another build.
func TestModelsFileFromAnotherBuild(t *testing.T) {
	gobEra, err := os.ReadFile(filepath.Join("testdata", "gob-era.ajaxmodels"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readModels(bytes.NewReader(gobEra)); err == nil {
		t.Error("gob-era models file accepted")
	}
	dir := t.TempDir()
	if err := SaveAll(dir, []*Graph{lineGraph()}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ModelFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(modelsMagic)]++
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ve *codec.VersionError
	if _, err := LoadAll(dir); !errors.As(err, &ve) || !strings.Contains(err.Error(), "written by another build") {
		t.Fatalf("models file of version %d: err = %v, want a refusal naming another build", data[len(modelsMagic)], err)
	}
}

// duplicateURLFile is a models file holding lineGraph twice, written by
// hand: SaveAll refuses to write it.
func duplicateURLFile(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	e := codec.NewEncoder(&buf)
	e.Header(modelsMagic, modelsVersion)
	e.Uvarint(2)
	lineGraph().encode(e)
	lineGraph().encode(e)
	return buf.Bytes()
}

// TestDuplicateGraphURLIsRefused: a models file that repeats a URL fails
// to load, which would otherwise panic the index build of ajaxsearch,
// and SaveAll refuses to write one, before it touches the file.
func TestDuplicateGraphURLIsRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ModelFileName)
	if err := os.WriteFile(path, duplicateURLFile(t), 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("duplicate graph URL %q", lineGraph().URL)
	if _, err := LoadAll(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadAll of a file repeating a URL: err = %v, want %q", err, want)
	}
	fresh := t.TempDir()
	if err := SaveAll(fresh, []*Graph{lineGraph(), lineGraph()}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("SaveAll of a repeated URL: err = %v, want %q", err, want)
	}
	if _, err := os.Stat(filepath.Join(fresh, ModelFileName)); !os.IsNotExist(err) {
		t.Fatalf("a refused save left a file behind (%v)", err)
	}
}

// FuzzLoadModels feeds the models file reader arbitrary bytes, seeded
// with a saved file, its truncations and the gob-era file it must
// refuse. A file it accepts holds graphs that keep their StateID
// invariants and saves back to bytes that read back to the same graphs.
func FuzzLoadModels(f *testing.F) {
	dir := f.TempDir()
	g2 := lineGraph()
	g2.URL = "/watch?v=other"
	g2.Transitions[0].Targets = []string{"comments", "player"}
	g2.Transitions[1].Probe = "q"
	if err := SaveAll(dir, []*Graph{lineGraph(), g2}); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, ModelFileName))
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(seed), len(seed) - 1, len(seed) / 2, 16, 5, 0} {
		f.Add(seed[:n])
	}
	gobEra, err := os.ReadFile(filepath.Join("testdata", "gob-era.ajaxmodels"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gobEra)
	f.Add(duplicateURLFile(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		graphs, err := readModels(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, g := range graphs {
			if err := g.check(); err != nil {
				t.Fatalf("accepted graph: %v", err)
			}
			for _, s := range g.States {
				g.PathTo(s.ID)
			}
		}
		dir := t.TempDir()
		if err := SaveAll(dir, graphs); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		again, err := LoadAll(dir)
		if err != nil {
			t.Fatalf("re-load: %v", err)
		}
		if len(again) != len(graphs) {
			t.Fatalf("re-load read %d graphs of %d", len(again), len(graphs))
		}
		for i := range graphs {
			a, _ := EncodeGraph(graphs[i])
			b, _ := EncodeGraph(again[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("graph %d does not round-trip", i)
			}
		}
	})
}

func TestLoadMissing(t *testing.T) {
	if _, err := LoadAll(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatalf("loading from missing dir should fail")
	}
}

// Property: for random DAG-ish graphs, every state reported reachable by
// PathTo is reached by replaying the returned transitions.
func TestPropertyPathReplayConsistent(t *testing.T) {
	f := func(seed int64) bool {
		g := NewGraph("u")
		n := 2 + int(uint64(seed)%8)
		for i := 0; i < n; i++ {
			g.AddState(h(byte(i)), "", i)
		}
		// Edges i -> i+1 plus a few extra from the seed.
		for i := 0; i+1 < n; i++ {
			g.AddTransition(&Transition{From: StateID(i), To: StateID(i + 1)})
		}
		x := uint64(seed)
		for k := 0; k < 4; k++ {
			from := StateID(x % uint64(n))
			x /= uint64(n)
			to := StateID(x % uint64(n))
			x = x*2654435761 + 1
			g.AddTransition(&Transition{From: from, To: to})
		}
		for i := 0; i < n; i++ {
			p := g.PathTo(StateID(i))
			if p == nil {
				continue
			}
			at := g.Initial
			for _, tr := range p {
				if tr.From != at {
					return false
				}
				at = tr.To
			}
			if at != StateID(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
