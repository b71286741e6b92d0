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
// and the positions slab as long as their capacity.
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
		if len(ix.positions) != cap(ix.positions) || len(ix.Docs) != cap(ix.Docs) {
			t.Fatalf("chunk %d: positions %d/%d, docs %d/%d (len/cap)", chunk, len(ix.positions), cap(ix.positions), len(ix.Docs), cap(ix.Docs))
		}
		for term, ps := range ix.Terms {
			if len(ps) != cap(ps) {
				t.Fatalf("chunk %d: %q has %d postings in a list of cap %d", chunk, term, len(ps), cap(ps))
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

// FuzzSnapshotLoad writes two shard files cut from the fuzz bytes (a
// uvarint length, then the first file, then the second) under a manifest
// of the sizes each decodes to alone, and loads the snapshot. The load
// never panics; an index it returns passes FuzzIndexLoad's checks and is
// the two files' indexes concatenated; and two files that decode alone,
// share no URL and fit the uint32 positions bound together always load.
func FuzzSnapshotLoad(f *testing.F) {
	part1, part2 := snapshotGraphs()
	seed := func(a, b []byte) []byte {
		return append(append(binary.AppendUvarint(nil, uint64(len(a))), a...), b...)
	}
	enc1, enc2 := encoded(f, Build(part1, map[string]float64{"site/watch?v=a": 0.4}, 0)), encoded(f, Build(part2, nil, 0))
	f.Add(seed(enc1, enc2))
	f.Add(seed(enc1, enc1)) // every URL in both files
	f.Add(seed(enc1, encoded(f, Build(append(part2, part1[1]), nil, 0))))
	summed := tokensPastUint32WhenSummed()
	f.Add(seed(summed[0], summed[1]))
	f.Add(seed(enc1, enc2[:len(enc2)/2]))
	f.Add(seed(badBounds()[0], enc2))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k) {
			n, k = uint64(len(data)/2), 0
		}
		files := [][]byte{data[k : k+int(n)], data[k+int(n):]}
		dir := t.TempDir()
		alone := writeRawSnapshot(t, dir, files)
		_, got, err := LoadSnapshot(dir)
		if len(alone) == 2 && err != nil {
			a, b := alone[0], alone[1]
			disjoint := true
			for url := range b.docByURL {
				if _, ok := a.docByURL[url]; ok {
					disjoint = false
				}
			}
			if disjoint && tokensOf(a)+tokensOf(b) <= math.MaxUint32 {
				t.Fatalf("two disjoint files that decode alone do not load together: %v", err)
			}
		}
		if err != nil {
			return
		}
		ix := got[0]
		requireQueryable(t, ix)
		if len(alone) != 2 {
			t.Fatalf("loaded a snapshot of %d files that decode alone", len(alone))
		}
		a, b := alone[0], alone[1]
		if !reflect.DeepEqual(ix.Docs, append(append([]DocInfo(nil), a.Docs...), b.Docs...)) || ix.TotalStates != a.TotalStates+b.TotalStates {
			t.Fatal("the loaded docs are not the files' docs in file order")
		}
		union := len(a.Terms)
		for term := range b.Terms {
			if _, ok := a.Terms[term]; !ok {
				union++
			}
		}
		if len(ix.Terms) != union {
			t.Fatalf("%d terms, the files hold %d", len(ix.Terms), union)
		}
		for term := range ix.Terms {
			want := flat(a, term)
			for _, p := range flat(b, term) {
				p.Doc += DocID(a.NumDocs())
				want = append(want, p)
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
