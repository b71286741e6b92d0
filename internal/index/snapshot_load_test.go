package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ajaxcrawl/internal/model"
)

// saveChunks publishes graphs as a snapshot whose shard files hold every
// chunk consecutive graphs, graph i with PageRank i, and returns the
// index Build makes of them all.
func saveChunks(tb testing.TB, dir string, graphs []*model.Graph, chunk int) *Index {
	tb.Helper()
	ranks := ranksByPosition(graphs)
	var shards []*Index
	for lo := 0; lo < len(graphs); lo += chunk {
		shards = append(shards, Build(graphs[lo:min(lo+chunk, len(graphs))], ranks, 0))
	}
	if _, err := SaveSnapshot(dir, shards, nil); err != nil {
		tb.Fatal(err)
	}
	return Build(graphs, ranks, 0)
}

// TestLoadSnapshotMergesFiles: however a corpus is cut into shard files,
// LoadSnapshot returns one index that encodes to the bytes of the index
// Build makes of the whole corpus, laid out exactly: every posting list
// as long as its capacity.
func TestLoadSnapshotMergesFiles(t *testing.T) {
	graphs := append(fixedGraphs(), randomGraphs(rand.New(rand.NewSource(38)), 45)...)
	for _, chunk := range []int{1, 7, ShardPages, len(graphs)} {
		dir := t.TempDir()
		want := saveChunks(t, dir, graphs, chunk)
		_, got, err := LoadSnapshot(dir)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if len(got) != 1 {
			t.Fatalf("chunk %d: %d indexes, want 1", chunk, len(got))
		}
		ix := got[0]
		requireSame(t, fmt.Sprintf("chunk %d", chunk), ix, want)
		if !bytes.Equal(encoded(t, ix), encoded(t, want)) {
			t.Fatalf("chunk %d: the loaded index encodes to other bytes than Build's", chunk)
		}
		if len(ix.Docs) != cap(ix.Docs) {
			t.Fatalf("chunk %d: docs %d/%d (len/cap)", chunk, len(ix.Docs), cap(ix.Docs))
		}
		for term, run := range ix.Terms {
			if len(run) != cap(run) {
				t.Fatalf("chunk %d: %q is a list of %d bytes in a run of cap %d", chunk, term, len(run), cap(run))
			}
		}
	}
}

// TestLoadSnapshotRefusesRepeatedURL: two shard files that index the same
// URL would both answer for it, and one index can hold it once; the load
// is refused with an error that names both files. One file that repeats
// a URL is refused by Decode.
func TestLoadSnapshotRefusesRepeatedURL(t *testing.T) {
	part1, part2 := snapshotGraphs()
	dir := t.TempDir()
	man, err := SaveSnapshot(dir, []*Index{Build(part1, nil, 0), Build(part2, nil, 0), Build(part1[1:], nil, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadSnapshot(dir)
	if err == nil || !strings.Contains(err.Error(), man.Shards[2].File) || !strings.Contains(err.Error(), man.Shards[0].File) {
		t.Fatalf("a URL in two shard files: err = %v, want both files named", err)
	}
	ix := Build(part1, nil, 0)
	ix.Docs[1].URL = ix.Docs[0].URL
	if _, err := Decode(bytes.NewReader(encoded(t, ix))); err == nil || !strings.Contains(err.Error(), "repeated") {
		t.Fatalf("a URL twice in one file: err = %v", err)
	}
}

// tokensPastUint32WhenSummed returns two shard files whose states hold
// fewer tokens than the uint32 position offsets address, each alone, but
// more than that together.
func tokensPastUint32WhenSummed() [2][]byte {
	a := onePosting([]uint64{math.MaxInt32, math.MaxInt32}, 0, 0)
	b := onePosting([]uint64{2}, 0, 0)
	b[len(header())+2] = 'v' // its one URL, so the two files are disjoint
	return [2][]byte{a, b}
}

// TestLoadSnapshotRefusesTokensPastUint32WhenSummed: the positions bound
// holds over the one index, so over the sum of its files.
func TestLoadSnapshotRefusesTokensPastUint32WhenSummed(t *testing.T) {
	files := tokensPastUint32WhenSummed()
	for i, f := range files {
		if _, err := Decode(bytes.NewReader(f)); err != nil {
			t.Fatalf("file %d alone: %v", i, err)
		}
	}
	dir := t.TempDir()
	writeRawSnapshot(t, dir, files[:])
	if _, _, err := LoadSnapshot(dir); err == nil || !strings.Contains(err.Error(), "uint32") {
		t.Fatalf("tokens past uint32 over two files: err = %v", err)
	}
}

// writeRawSnapshot writes files as dir's shard files under a manifest
// that records the sizes each decodes to alone (zeros for one that does
// not decode), and returns the indexes that decoded.
func writeRawSnapshot(tb testing.TB, dir string, files [][]byte) []*Index {
	tb.Helper()
	m := &Manifest{Version: ManifestVersion, ID: "raw"}
	var alone []*Index
	for i, data := range files {
		e := ShardEntry{File: fmt.Sprintf("shard-%04d.bin", i)}
		if err := os.WriteFile(filepath.Join(dir, e.File), data, 0o644); err != nil {
			tb.Fatal(err)
		}
		if ix, err := Decode(bytes.NewReader(data)); err == nil {
			e.Docs, e.States, e.Terms = ix.NumDocs(), ix.TotalStates, ix.NumTerms()
			alone = append(alone, ix)
		}
		m.Shards = append(m.Shards, e)
		m.TotalDocs += e.Docs
		m.TotalTerms += e.Terms
	}
	if err := WriteManifest(dir, m); err != nil {
		tb.Fatal(err)
	}
	return alone
}

// seamGraphs returns 180 graphs, cut into shard files of 50, 90 and 40
// (seamCuts), whose term lists cross every seam: "every" is in each
// graph, "ends" in the first and last graph of each file, and "rare" in
// graph 0 and graph 140 only, so its second posting's doc delta, 0 in
// the third file, is 140 in the loaded list and takes two bytes.
func seamGraphs() []*model.Graph {
	graphs := make([]*model.Graph, 180)
	for i := range graphs {
		g := model.NewGraph(fmt.Sprintf("site/watch?v=%d", i))
		text := fmt.Sprintf("every video%d", i%7)
		if i == 0 || i == 140 {
			text += " rare every"
		}
		if i == 0 || i == 49 || i == 50 || i == 139 || i == 140 || i == 179 {
			text = "ends " + text
		}
		g.AddState(hashOf(1), text, 0)
		if i%3 == 0 {
			g.AddState(hashOf(2), "every comment", 1)
		}
		graphs[i] = g
	}
	return graphs
}

// seamCuts are the graph counts of seamGraphs' shard files.
var seamCuts = []int{50, 90, 40}

// seamFiles returns the shard files of seamGraphs.
func seamFiles(tb testing.TB) [][]byte {
	graphs, ranks := seamGraphs(), ranksByPosition(seamGraphs())
	var files [][]byte
	for lo, i := 0, 0; i < len(seamCuts); lo, i = lo+seamCuts[i], i+1 {
		files = append(files, encoded(tb, Build(graphs[lo:lo+seamCuts[i]], ranks, 0)))
	}
	return files
}

// TestLoadSnapshotRecodesSeams: a term's list crosses each file seam by
// re-coding only the first doc delta of the next file's part, whose
// width may change; the loaded index encodes to Build's bytes.
func TestLoadSnapshotRecodesSeams(t *testing.T) {
	dir := t.TempDir()
	writeRawSnapshot(t, dir, seamFiles(t))
	_, got, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	graphs := seamGraphs()
	want := Build(graphs, ranksByPosition(graphs), 0)
	if !bytes.Equal(encoded(t, got[0]), encoded(t, want)) {
		t.Fatal("the loaded index encodes to other bytes than Build's")
	}
	if rare := flat(got[0], "rare"); len(rare) != 2 || rare[1].Doc != 140 {
		t.Fatalf("postings of rare %+v, want docs 0 and 140", rare)
	}
}

// snapshotFiles cuts fuzz bytes into two to four shard files: the first
// byte picks the count, each file but the last is a uvarint length and
// its bytes, and the last is the rest. Bytes that do not cut so are
// halved.
func snapshotFiles(data []byte) [][]byte {
	if len(data) > 0 {
		n, rest := int(data[0]%3)+2, data[1:]
		var files [][]byte
		for len(files) < n-1 {
			size, k := binary.Uvarint(rest)
			if k <= 0 || size > uint64(len(rest)-k) {
				break
			}
			files, rest = append(files, rest[k:k+int(size)]), rest[k+int(size):]
		}
		if len(files) == n-1 {
			return append(files, rest)
		}
	}
	return [][]byte{data[:len(data)/2], data[len(data)/2:]}
}

// joinFiles is the fuzz input snapshotFiles cuts into files.
func joinFiles(files ...[]byte) []byte {
	out := []byte{byte(len(files) - 2)}
	for _, f := range files[:len(files)-1] {
		out = append(binary.AppendUvarint(out, uint64(len(f))), f...)
	}
	return append(out, files[len(files)-1]...)
}

// FuzzSnapshotLoad writes the shard files snapshotFiles cuts from the
// fuzz bytes under a manifest of the sizes each decodes to alone, and
// loads the snapshot. The load never panics; an index it returns passes
// FuzzIndexLoad's checks and is the files' indexes concatenated; and
// files that decode alone, share no URL and fit the uint32 token bound
// together always load.
func FuzzSnapshotLoad(f *testing.F) {
	part1, part2 := snapshotGraphs()
	enc1, enc2 := encoded(f, Build(part1, map[string]float64{"site/watch?v=a": 0.4}, 0)), encoded(f, Build(part2, nil, 0))
	f.Add(joinFiles(enc1, enc2))
	f.Add(joinFiles(enc1, enc1)) // every URL in both files
	f.Add(joinFiles(enc1, encoded(f, Build(append(part2, part1[1]), nil, 0))))
	summed := tokensPastUint32WhenSummed()
	f.Add(joinFiles(summed[0], summed[1]))
	f.Add(joinFiles(enc1, enc2[:len(enc2)/2]))
	f.Add(joinFiles(badBounds()[0], enc2))
	f.Add([]byte{})
	f.Add(joinFiles(seamFiles(f)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		files := snapshotFiles(data)
		dir := t.TempDir()
		alone := writeRawSnapshot(t, dir, files)
		_, got, err := LoadSnapshot(dir)
		if len(alone) == len(files) && err != nil {
			urls, tokens := map[string]bool{}, uint64(0)
			for _, a := range alone {
				for url := range a.docByURL {
					if urls[url] {
						return // a URL in two files
					}
					urls[url] = true
				}
				tokens += tokensOf(a)
			}
			if tokens <= math.MaxUint32 {
				t.Fatalf("%d disjoint files that decode alone do not load together: %v", len(files), err)
			}
		}
		if err != nil {
			return
		}
		ix := got[0]
		requireQueryable(t, ix)
		if len(alone) != len(files) {
			t.Fatalf("loaded a snapshot of %d files, %d of which decode alone", len(files), len(alone))
		}
		var docs []DocInfo
		states, vocab := 0, map[string]bool{}
		for _, a := range alone {
			docs, states = append(docs, a.Docs...), states+a.TotalStates
			for term := range a.Terms {
				vocab[term] = true
			}
		}
		if !reflect.DeepEqual(ix.Docs, docs) || ix.TotalStates != states {
			t.Fatal("the loaded docs are not the files' docs in file order")
		}
		if len(ix.Terms) != len(vocab) {
			t.Fatalf("%d terms, the files hold %d", len(ix.Terms), len(vocab))
		}
		for term := range ix.Terms {
			var want []flatPosting
			base := DocID(0)
			for _, a := range alone {
				for _, p := range flat(a, term) {
					p.Doc += base
					want = append(want, p)
				}
				base += DocID(a.NumDocs())
			}
			if got := flat(ix, term); !reflect.DeepEqual(got, want) {
				t.Fatalf("postings of %q\n got %+v\nwant %+v", term, got, want)
			}
		}
	})
}

// tokensOf returns the token count of ix's states.
func tokensOf(ix *Index) uint64 {
	n := uint64(0)
	for _, d := range ix.Docs {
		for _, l := range d.StateLens {
			n += uint64(l)
		}
	}
	return n
}
