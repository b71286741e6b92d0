package index

import (
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/model"
)

func hashOf(b byte) dom.Hash {
	var h dom.Hash
	h[0] = b
	return h
}

// twoVideoGraphs reproduces the running example of Table 5.1: two
// Morcheeba videos, one with two states.
func twoVideoGraphs() []*model.Graph {
	g1 := model.NewGraph("www.youtube.com/watch?v=w16JlLSySWQ")
	g1.AddState(hashOf(1), "morcheeba mysterious video comments", 0)
	g1.AddState(hashOf(2), "morcheeba singer enjoy the ride", 1)
	g1.AddTransition(&model.Transition{From: 0, To: 1, Event: "onclick"})

	g2 := model.NewGraph("www.youtube.com/watch?v=Iv5JXxME0js")
	g2.AddState(hashOf(3), "morcheeba morcheeba live concert", 0)
	return []*model.Graph{g1, g2}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Hello World", []string{"hello", "world"}},
		{"don't stop-me now!", []string{"don", "t", "stop", "me", "now"}},
		{"UPPER lower 123 mix3d", []string{"upper", "lower", "123", "mix3d"}},
		{"  spaces   everywhere  ", []string{"spaces", "everywhere"}},
		{"héllo wörld", []string{"héllo", "wörld"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBuildInvertedFile(t *testing.T) {
	ix := Build(twoVideoGraphs(), map[string]float64{
		"www.youtube.com/watch?v=w16JlLSySWQ": 0.6,
		"www.youtube.com/watch?v=Iv5JXxME0js": 0.4,
	}, 0)

	if ix.NumDocs() != 2 || ix.TotalStates != 3 {
		t.Fatalf("docs=%d states=%d", ix.NumDocs(), ix.TotalStates)
	}
	// "morcheeba" appears in all three states (Table 5.1).
	ps := ix.Lookup("morcheeba")
	if len(ps) != 3 {
		t.Fatalf("morcheeba postings = %d, want 3", len(ps))
	}
	// Sorted by (doc, state).
	if !sort.SliceIsSorted(ps, func(i, j int) bool {
		if ps[i].Doc != ps[j].Doc {
			return ps[i].Doc < ps[j].Doc
		}
		return ps[i].State < ps[j].State
	}) {
		t.Fatalf("postings not sorted: %v", ps)
	}
	// The second video's state has tf 2 (morcheeba twice).
	last := ps[2]
	if last.Doc != 1 || last.TF() != 2 {
		t.Fatalf("doc2 posting = %+v", last)
	}
	// "singer" only in state 2 of video 1 (the second comment page).
	singer := ix.Lookup("singer")
	if len(singer) != 1 || singer[0].Doc != 0 || singer[0].State != 1 {
		t.Fatalf("singer postings = %v", singer)
	}
	// Case-insensitive lookup.
	if len(ix.Lookup("MORCHEEBA")) != 3 {
		t.Fatalf("lookup must be case-insensitive")
	}
	// DF is per state.
	if ix.DF("morcheeba") != 3 || ix.DF("nothere") != 0 {
		t.Fatalf("DF wrong")
	}
	// PageRank attached to docs.
	if ix.Doc(0).PageRank != 0.6 {
		t.Fatalf("pagerank lost")
	}
	// Positions recorded.
	if pos := ix.Positions(singer[0]); pos[0] != 1 {
		t.Fatalf("position = %v, want 1 (second token)", pos)
	}
}

func TestAJAXRankDecays(t *testing.T) {
	if AJAXRank(0) != 1 {
		t.Fatalf("depth-0 rank should be 1")
	}
	if !(AJAXRank(1) < AJAXRank(0)) || !(AJAXRank(5) < AJAXRank(1)) {
		t.Fatalf("AJAXRank must decay with depth")
	}
	ix := Build(twoVideoGraphs(), nil, 0)
	d := ix.Doc(0)
	if len(d.AJAXRanks) != 2 || d.AJAXRanks[0] != 1 || d.AJAXRanks[1] >= 1 {
		t.Fatalf("doc ajaxranks = %v", d.AJAXRanks)
	}
}

func TestMaxStatesLimitsIndexing(t *testing.T) {
	ix := Build(twoVideoGraphs(), nil, 1)
	if ix.TotalStates != 2 {
		t.Fatalf("maxStates=1 should index 2 states, got %d", ix.TotalStates)
	}
	// "singer" lives in state 1, which is excluded.
	if ix.DF("singer") != 0 {
		t.Fatalf("state beyond maxStates leaked into index")
	}
	if ix.DF("morcheeba") != 2 {
		t.Fatalf("first states should be indexed")
	}
}

func TestDuplicateURLPanics(t *testing.T) {
	ix := New()
	g := model.NewGraph("u")
	g.AddState(hashOf(1), "x", 0)
	ix.AddGraph(g, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate AddGraph must panic")
		}
	}()
	ix.AddGraph(g, 0, 0)
}

func TestStateLens(t *testing.T) {
	ix := Build(twoVideoGraphs(), nil, 0)
	d := ix.Doc(0)
	if d.StateLens[0] != 4 || d.StateLens[1] != 5 {
		t.Fatalf("state lens = %v", d.StateLens)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ix := Build(twoVideoGraphs(), map[string]float64{"www.youtube.com/watch?v=w16JlLSySWQ": 0.9}, 0)
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalStates != ix.TotalStates || loaded.NumDocs() != ix.NumDocs() || loaded.NumTerms() != ix.NumTerms() {
		t.Fatalf("round trip lost data")
	}
	if !reflect.DeepEqual(flat(loaded, "morcheeba"), flat(ix, "morcheeba")) {
		t.Fatalf("postings differ after reload")
	}
	if d, ok := loaded.DocByURL("www.youtube.com/watch?v=w16JlLSySWQ"); !ok || d != 0 {
		t.Fatalf("docByURL not rebuilt")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatalf("loading missing index should fail")
	}
}

func TestIncrementalEqualsBatch(t *testing.T) {
	graphs := twoVideoGraphs()
	batch := Build(graphs, nil, 0)
	inc := New()
	for _, g := range graphs {
		inc.AddGraph(g, 0, 0)
	}
	if batch.TotalStates != inc.TotalStates || batch.NumTerms() != inc.NumTerms() {
		t.Fatalf("incremental differs from batch")
	}
	for term := range batch.Terms {
		if !reflect.DeepEqual(flat(batch, term), flat(inc, term)) {
			t.Fatalf("postings differ for %q", term)
		}
	}
}

// Property: every token of every state text is findable, with a posting
// whose position points at that token.
func TestPropertyAllTokensIndexed(t *testing.T) {
	f := func(words []string) bool {
		text := ""
		for _, w := range words {
			text += " " + w
		}
		g := model.NewGraph("u")
		g.AddState(hashOf(1), text, 0)
		ix := New()
		ix.AddGraph(g, 0, 0)
		toks := Tokenize(text)
		for pos, tok := range toks {
			ps := ix.Lookup(tok)
			if len(ps) != 1 {
				return false
			}
			found := false
			for _, p := range ix.Positions(ps[0]) {
				if int(p) == pos {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum over terms of tf in a state equals the state length.
func TestPropertyTFSumsToStateLen(t *testing.T) {
	f := func(text string) bool {
		g := model.NewGraph("u")
		g.AddState(hashOf(1), text, 0)
		ix := New()
		ix.AddGraph(g, 0, 0)
		sum := 0
		for _, ps := range ix.Terms {
			for _, p := range ps {
				sum += p.TF()
			}
		}
		return sum == len(Tokenize(text)) && int(ix.Doc(0).StateLens[0]) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIDFComputation(t *testing.T) {
	ix := Build(twoVideoGraphs(), nil, 0)
	// idf(morcheeba) = log(3/3) = 0; idf(singer) = log(3/1) > 0.
	idfM := math.Log(float64(ix.TotalStates) / float64(ix.DF("morcheeba")))
	idfS := math.Log(float64(ix.TotalStates) / float64(ix.DF("singer")))
	if idfM != 0 || idfS <= 0 {
		t.Fatalf("idf: morcheeba=%v singer=%v", idfM, idfS)
	}
}
