package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ajaxcrawl/internal/model"
)

// addGraphOracle is AddGraph as it was before postings shared a slab:
// Tokenize per state, a positions map per state, a slice per term.
func addGraphOracle(ix *Index, g *model.Graph, pageRank float64, maxStates int) {
	doc := DocID(len(ix.Docs))
	info := DocInfo{URL: g.URL, PageRank: pageRank}
	ix.docByURL[g.URL] = doc
	for _, s := range g.States {
		if maxStates > 0 && int(s.ID) >= maxStates {
			continue
		}
		tokens := Tokenize(s.Text)
		info.States++
		info.StateLens = append(info.StateLens, int32(len(tokens)))
		info.AJAXRanks = append(info.AJAXRanks, AJAXRank(s.Depth))
		info.Texts = append(info.Texts, s.Text)
		ix.TotalStates++
		positions := make(map[string][]int32)
		for pos, tok := range tokens {
			positions[tok] = append(positions[tok], int32(pos))
		}
		for term, poss := range positions {
			ps, known := ix.Terms[term]
			if !known {
				term = strings.Clone(term)
			}
			ix.Terms[term] = append(ps, Posting{Doc: doc, State: int32(s.ID), Off: uint32(len(ix.positions)), N: uint32(len(poss))})
			ix.positions = append(ix.positions, poss...)
		}
	}
	ix.Docs = append(ix.Docs, info)
}

// randomGraphs draws graphs over one small vocabulary, so graphs share
// terms, in mixed case, with repeats, punctuation and empty states.
func randomGraphs(r *rand.Rand, n int) []*model.Graph {
	vocab := []string{"video", "Video", "MORCHEEBA", "comments", "page", "1", "of", "3", "héllo", "Wörld", "ÉTÉ", "ride"}
	seps := []string{" ", "  ", "\n", "-", "!!! ", ", "}
	var graphs []*model.Graph
	for gi := 0; gi < n; gi++ {
		g := model.NewGraph(fmt.Sprintf("/watch?v=%d", gi))
		for si := r.Intn(12); si >= 0; si-- {
			var b strings.Builder
			for w := r.Intn(40) - 5; w > 0; w-- {
				b.WriteString(vocab[r.Intn(len(vocab))])
				b.WriteString(seps[r.Intn(len(seps))])
			}
			g.AddState(hashOf(byte(si)), b.String(), r.Intn(4))
		}
		graphs = append(graphs, g)
	}
	return graphs
}

// fixedGraphs are the hand-written graphs the oracle tests add to the
// random ones: the running example and a graph of empty, token-free and
// repeated-token states.
func fixedGraphs() []*model.Graph {
	empty := model.NewGraph("/empty")
	empty.AddState(hashOf(1), "", 0)
	empty.AddState(hashOf(2), "!!! --- ...", 1)
	empty.AddState(hashOf(3), "Ride RIDE ride, ride", 1)
	return append(twoVideoGraphs(), empty)
}

// oracleIndex indexes graphs one addGraphOracle at a time; graph i has
// PageRank i.
func oracleIndex(graphs []*model.Graph, maxStates int) *Index {
	ix := New()
	for i, g := range graphs {
		addGraphOracle(ix, g, float64(i), maxStates)
	}
	return ix
}

// ranksByPosition gives graph i PageRank i, as oracleIndex does.
func ranksByPosition(graphs []*model.Graph) map[string]float64 {
	pr := make(map[string]float64, len(graphs))
	for i, g := range graphs {
		pr[g.URL] = float64(i)
	}
	return pr
}

// flatPosting is a posting with its positions read out of the slab, so
// two indexes whose slabs are laid out differently compare equal.
type flatPosting struct {
	Doc       DocID
	State     int32
	Positions []int32
}

// flat returns term's postings in ix with their positions.
func flat(ix *Index, term string) []flatPosting {
	var out []flatPosting
	for _, p := range ix.Lookup(term) {
		out = append(out, flatPosting{p.Doc, p.State, ix.Positions(p)})
	}
	return out
}

// requireSame fails tb unless got holds want's documents, states and
// postings, naming the first term whose postings differ.
func requireSame(tb testing.TB, what string, got, want *Index) {
	tb.Helper()
	if got.TotalStates != want.TotalStates {
		tb.Fatalf("%s: TotalStates %d, want %d", what, got.TotalStates, want.TotalStates)
	}
	if !reflect.DeepEqual(got.Docs, want.Docs) {
		tb.Fatalf("%s: Docs differ from the oracle", what)
	}
	if !reflect.DeepEqual(got.docByURL, want.docByURL) {
		tb.Fatalf("%s: docByURL %v, want %v", what, got.docByURL, want.docByURL)
	}
	if len(got.Terms) != len(want.Terms) {
		tb.Fatalf("%s: %d terms, want %d", what, len(got.Terms), len(want.Terms))
	}
	for term := range want.Terms {
		if g, w := flat(got, term), flat(want, term); !reflect.DeepEqual(g, w) {
			tb.Fatalf("%s: postings of %q\n got %+v\nwant %+v", what, term, g, w)
		}
	}
}

// encoded returns ix's AJIX bytes.
func encoded(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestAddGraphMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, maxStates := range []int{0, 1, 3} {
		graphs := append(fixedGraphs(), randomGraphs(r, 30)...)
		got := New()
		for i, g := range graphs {
			got.AddGraph(g, float64(i), maxStates)
		}
		requireSame(t, fmt.Sprintf("maxStates %d", maxStates), got, oracleIndex(graphs, maxStates))
	}
}

// TestBuildMatchesOracle: one Build lays the graphs out as the oracle
// indexes them one by one, and encodes to the bytes of a sequential
// AddGraph index.
func TestBuildMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for _, maxStates := range []int{0, 1, 3} {
		graphs := append(fixedGraphs(), randomGraphs(r, 30)...)
		got := Build(graphs, ranksByPosition(graphs), maxStates)
		what := fmt.Sprintf("maxStates %d", maxStates)
		requireSame(t, what, got, oracleIndex(graphs, maxStates))
		seq := New()
		for i, g := range graphs {
			seq.AddGraph(g, float64(i), maxStates)
		}
		if !bytes.Equal(encoded(t, got), encoded(t, seq)) {
			t.Fatalf("%s: Build encodes differently from sequential AddGraph", what)
		}
		for term, ps := range got.Terms {
			if len(ps) != cap(ps) {
				t.Fatalf("%s: postings of %q: len %d, cap %d", what, term, len(ps), cap(ps))
			}
		}
	}
	if got := Build(nil, nil, 0); !reflect.DeepEqual(got, New()) {
		t.Fatalf("Build of no graphs = %+v, want an empty index", got)
	}
}

// Every posting's positions live in the index's one slab; an AddGraph
// onto a built index grows the slab and the lists, and must leave every
// earlier posting — and its positions — as it was. An append to one
// posting's positions must not reach its neighbour's either.
func TestPostingPositionsDoNotAlias(t *testing.T) {
	g := model.NewGraph("/x")
	g.AddState(hashOf(1), "a b a c b a d", 0)
	g2 := model.NewGraph("/y")
	g2.AddState(hashOf(1), "d c b a", 0)
	g2.AddState(hashOf(2), "b b e a", 1)
	ix := Build([]*model.Graph{g, g2}, nil, 0)
	before := map[string][]flatPosting{}
	for term := range ix.Terms {
		before[term] = flat(ix, term)
		for _, p := range ix.Terms[term] {
			_ = append(ix.Positions(p), 99, 98)
		}
	}
	g3 := model.NewGraph("/z")
	g3.AddState(hashOf(1), "e a a f b "+strings.Repeat("c d ", 100), 0)
	ix.AddGraph(g3, 0, 0)
	for term, want := range before {
		if got := flat(ix, term)[:len(want)]; !reflect.DeepEqual(got, want) {
			t.Fatalf("postings of %q became %+v, want %+v", term, got, want)
		}
	}
	want := New()
	for _, g := range []*model.Graph{g, g2, g3} {
		addGraphOracle(want, g, 0, 0)
	}
	requireSame(t, "Build + AddGraph", ix, want)
}

// TestAddGraphAllocs: indexing a graph allocates one positions slab and
// one postings slab, one clone per new term and one growth per known
// term whose list lacks room — plus what the call pays for the graph,
// which is what a one-state graph of the same vocabulary pays. A graph's
// state count does not enter.
func TestAddGraphAllocs(t *testing.T) {
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%d", i)
	}
	known := vocab[:30]
	seed := model.NewGraph("/seed")
	seed.AddState(hashOf(0), strings.Join(known, " "), 0)
	const states = 20
	wide := model.NewGraph("/wide")
	narrow := model.NewGraph("/narrow")
	for si := 0; si < states; si++ {
		text := strings.Join(vocab, " ") // the first state is the widest
		if si > 0 {
			text = strings.Join(vocab[si:si+10], " ")
		}
		wide.AddState(hashOf(byte(si)), text, 0)
		if si == 0 {
			narrow.AddState(hashOf(byte(si)), text, 0)
		}
	}
	// measure reports AddGraph's allocations on an index that already
	// holds the known terms, and how many known lists had to grow.
	measure := func(g *model.Graph) (allocs, growth float64) {
		const runs = 20
		fresh := make([]*Index, runs+1)
		for i := range fresh {
			fresh[i] = New()
			fresh[i].AddGraph(seed, 0, 0)
		}
		ref := New()
		ref.AddGraph(seed, 0, 0)
		room := map[string]int{}
		lens := map[string]int{}
		for term, ps := range ref.Terms {
			room[term], lens[term] = cap(ps)-len(ps), len(ps)
		}
		ref.AddGraph(g, 0, 0)
		for term, ps := range ref.Terms {
			if n, ok := lens[term]; ok && len(ps)-n > room[term] {
				growth++
			}
		}
		next := 0
		allocs = testing.AllocsPerRun(runs, func() {
			fresh[next].AddGraph(g, 0, 0)
			next++
		})
		return allocs, growth
	}
	wideAllocs, wideGrowth := measure(wide)
	narrowAllocs, narrowGrowth := measure(narrow)
	newTerms := float64(len(vocab) - len(known))
	t.Logf("wide %v allocs (%v growth), narrow %v (%v growth), %v new terms", wideAllocs, wideGrowth, narrowAllocs, narrowGrowth, newTerms)
	perGraph := narrowAllocs - newTerms - narrowGrowth
	if want := newTerms + wideGrowth + perGraph; wideAllocs > want {
		t.Fatalf("AddGraph of %d states allocates %v times, want ≤ %v = %v new terms + %v list growth + %v per graph",
			states, wideAllocs, want, newTerms, wideGrowth, perGraph)
	}
}

// TestBuildAllocs: over a fixed vocabulary, Build allocates as often
// for 200 states as for 20 — the slabs grow, their count does not.
func TestBuildAllocs(t *testing.T) {
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("Term%d", i) // mixed case: lowered into the buffer
	}
	graphs := func(states int) []*model.Graph {
		var gs []*model.Graph
		for gi := 0; gi < 2; gi++ {
			g := model.NewGraph(fmt.Sprintf("/g%d", gi))
			for si := 0; si < states/2; si++ {
				words := append(slices.Clone(vocab[si%len(vocab):]), vocab[:si%len(vocab)]...)
				g.AddState(hashOf(byte(si)), strings.Join(words, " "), si%3)
			}
			gs = append(gs, g)
		}
		return gs
	}
	allocs := func(gs []*model.Graph) float64 {
		return testing.AllocsPerRun(10, func() { Build(gs, nil, 0) })
	}
	small, large := allocs(graphs(20)), allocs(graphs(200))
	t.Logf("20 states: %v allocs, 200 states: %v", small, large)
	if large != small {
		t.Fatalf("Build allocates %v times for 200 states, %v for 20: want the same count", large, small)
	}
}

// built keeps BenchmarkBuild's result live.
var built *Index

// BenchmarkBuild builds one shard of 200 random graphs.
func BenchmarkBuild(b *testing.B) {
	graphs := append(fixedGraphs(), randomGraphs(rand.New(rand.NewSource(35)), 200)...)
	pr := ranksByPosition(graphs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built = Build(graphs, pr, 0)
	}
}

// FuzzBuild turns bytes into graphs and holds Build and sequential
// AddGraph to the oracle, which tokenizes with Tokenize, the query
// side's tokenizer: 0xFF ends a graph, 0xFE a state; the first byte
// picks maxStates. All three must encode to the same bytes, and those
// must decode.
func FuzzBuild(f *testing.F) {
	f.Add([]byte("\x00morcheeba mysterious video\xfeMorcheeba singer, RIDE\xffvideo ride ride"))
	f.Add([]byte("\x01\xfe\xfe!!! ---\xff\xffÉTÉ été Été\xfehéllo Wörld\xc3"))
	f.Add([]byte("\x03a b a c b a d\xfeb b e a\xfed\xfec\xfeb\xffa\xfeA\xfe\xe1\xba\x9e\xe1\xba\x9e"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		maxStates := int(data[0] % 4)
		var graphs []*model.Graph
		for gi, gdata := range bytes.Split(data[1:], []byte{0xff}) {
			g := model.NewGraph(fmt.Sprintf("/g%d", gi))
			for si, text := range bytes.Split(gdata, []byte{0xfe}) {
				g.AddState(hashOf(byte(si)), string(text), si%4)
			}
			graphs = append(graphs, g)
		}
		want := oracleIndex(graphs, maxStates)
		got := Build(graphs, ranksByPosition(graphs), maxStates)
		requireSame(t, "Build", got, want)
		seq := New()
		for i, g := range graphs {
			seq.AddGraph(g, float64(i), maxStates)
		}
		requireSame(t, "AddGraph", seq, want)
		enc := encoded(t, got)
		if !bytes.Equal(enc, encoded(t, seq)) || !bytes.Equal(enc, encoded(t, want)) {
			t.Fatal("Build, AddGraph and the oracle encode differently")
		}
		back, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := back.validate(); err != nil {
			t.Fatal(err)
		}
	})
}
