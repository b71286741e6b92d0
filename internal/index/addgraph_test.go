package index

import (
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
			ix.Terms[term] = append(ps, Posting{Doc: doc, State: s.ID, Positions: poss})
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

func TestAddGraphMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	fixed := twoVideoGraphs()
	empty := model.NewGraph("/empty")
	empty.AddState(hashOf(1), "", 0)
	empty.AddState(hashOf(2), "!!! --- ...", 1)
	empty.AddState(hashOf(3), "Ride RIDE ride, ride", 1)
	fixed = append(fixed, empty)
	for _, maxStates := range []int{0, 1, 3} {
		graphs := append(fixed, randomGraphs(r, 30)...)
		got, want := New(), New()
		for i, g := range graphs {
			got.AddGraph(g, float64(i), maxStates)
			addGraphOracle(want, g, float64(i), maxStates)
		}
		if got.TotalStates != want.TotalStates {
			t.Fatalf("maxStates %d: TotalStates %d, want %d", maxStates, got.TotalStates, want.TotalStates)
		}
		if !reflect.DeepEqual(got.Docs, want.Docs) {
			t.Fatalf("maxStates %d: Docs differ from the oracle", maxStates)
		}
		if !reflect.DeepEqual(got.Terms, want.Terms) {
			for term, ps := range want.Terms {
				if !reflect.DeepEqual(got.Terms[term], ps) {
					t.Fatalf("maxStates %d: postings of %q\n got %+v\nwant %+v", maxStates, term, got.Terms[term], ps)
				}
			}
			t.Fatalf("maxStates %d: %d terms, want %d", maxStates, len(got.Terms), len(want.Terms))
		}
	}
}

// A state's postings share one slab; appending to one posting's
// positions must leave every other posting's positions as they were.
func TestPostingPositionsDoNotAlias(t *testing.T) {
	g := model.NewGraph("/x")
	g.AddState(hashOf(1), "a b a c b a d", 0)
	ix := New()
	ix.AddGraph(g, 0, 0)
	before := map[string][]int32{}
	for term, ps := range ix.Terms {
		before[term] = slices.Clone(ps[0].Positions)
	}
	for term, ps := range ix.Terms {
		ps[0].Positions = append(ps[0].Positions, 99, 98)
		for other, ops := range ix.Terms {
			if other != term && !slices.Equal(ops[0].Positions, before[other]) {
				t.Fatalf("appending to %q changed %q: %v, want %v", term, other, ops[0].Positions, before[other])
			}
		}
		ps[0].Positions = before[term]
	}
}

// TestAddGraphAllocs: indexing a graph allocates one positions slab per
// state, one clone per new term and whatever the posting lists need to
// grow — plus what the first state pays for the whole graph, which is
// what a one-state graph of the same text pays.
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
	// holds the known terms, and how often posting lists grew.
	measure := func(g *model.Graph) (allocs, growth float64) {
		const runs = 20
		fresh := make([]*Index, runs+1)
		for i := range fresh {
			fresh[i] = New()
			fresh[i].AddGraph(seed, 0, 0)
		}
		ref := New()
		ref.AddGraph(seed, 0, 0)
		caps := map[string]int{}
		for term, ps := range ref.Terms {
			caps[term] = cap(ps)
		}
		ref.AddGraph(g, 0, 0)
		for term, ps := range ref.Terms {
			n := len(ps) - 1
			if caps[term] == 0 {
				n = len(ps)
			}
			sim := make([]Posting, len(ps)-n, caps[term])
			for ; n > 0; n-- {
				if len(sim) == cap(sim) {
					growth++
				}
				sim = append(sim, Posting{})
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
	perGraph := narrowAllocs - 1 - newTerms - narrowGrowth
	if want := states + newTerms + wideGrowth + perGraph; wideAllocs > want {
		t.Fatalf("AddGraph of %d states allocates %v times, want ≤ %v = states + %v new terms + %v posting-list growth + %v per graph",
			states, wideAllocs, want, newTerms, wideGrowth, perGraph)
	}
}
