package core

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"sort"
	"strconv"
	"testing"

	"etap/internal/annotate"
	"etap/internal/corpus"
	"etap/internal/feature"
	"etap/internal/rank"
	"etap/internal/snippet"
	"etap/internal/textproc"
	"etap/internal/web"
)

// annotationGolden pins the bytes of the per-snippet path every
// extraction pass repeats — sentence split, tokenization, snippet
// generation, annotation, feature abstraction, vectorization and
// scoring — over every page of the default world. TestTable1Shape and
// TestTable1Deterministic check the shape of the results and compare
// two runs of the same code, so neither sees a kernel rewrite that
// changes one token. These digests were computed before the kernels
// were rewritten for speed; a change to any of them is a behaviour
// change, not a refactor.
var annotationGolden = []struct {
	seed int64
	want goldenResult
}{
	{1, goldenResult{
		pages: 920, snippets: 2688,
		sentences: "89fb801a8c9f233a827936d435296d238692e0c104055a8439e9251704bcba57",
		tokens:    "9bd6bea834e222097bf9c3ab2778d1a49715fdd6cd5d673b45e5e16a4cc851fa",
		split:     "ab23aad20112dcd5c3c15b2aee216ce1dac118e9063c4c622d5e9df8e2907703",
		units:     "5bf91e8921127e880f56a93120e892fddf24cc09c246cc0d02cb10a597f6dfd6",
		features:  "49d6c49410ac9f7358df7d6d7884be8d88f4f1ed07ff063c48b6be3650b4469b",
		vectors:   "77265ae7e80d771a59feaf548356121cf43acc8d8f8acd6387dec40f30cf8933",
		events:    "cab76378b4d18df8c8a545867d360921a2c9a4c45548af5a82a6a132674704f9",
	}},
	{7, goldenResult{
		pages: 920, snippets: 2691,
		sentences: "9f976fed4b7bad9a7eaf74ae4b69c6c360410cdb6e4d14668189cc16937ce080",
		tokens:    "8003a2cf411791a52aa124b03fa874563d1b9230a30f56c35470850ee382688f",
		split:     "ab8a338278f027ca39fd81acebbe7d28efd88cf250ca4593318da7614c224abb",
		units:     "9de23ca28b5c51c919f6bb09e66dfa2cd6282c37e819bc7b40661e298619a3e7",
		features:  "c0e3f5e5966595b702757bb7eec7c859f8622ce7989c74320afee5b735284d1b",
		vectors:   "7ca117a151b5bf55ff3e0405aea9f5c9e9ee09484b77ad63d6bfcc4cb05bb696",
		events:    "0aa5d988a13d673555005de1983263dee285632f57ab508c796fa47321b4b4f1",
	}},
}

func TestAnnotationGoldenDigests(t *testing.T) {
	for _, tc := range annotationGolden {
		t.Run("seed"+strconv.FormatInt(tc.seed, 10), func(t *testing.T) {
			got, want := annotationDigests(t, tc.seed), tc.want
			check := func(what, got, want string) {
				t.Helper()
				if got != want {
					t.Errorf("%s digest = %s, want %s", what, got, want)
				}
			}
			if got.pages != want.pages || got.snippets != want.snippets {
				t.Errorf("world has %d pages, %d snippets; want %d, %d",
					got.pages, got.snippets, want.pages, want.snippets)
			}
			check("SplitSentences", got.sentences, want.sentences)
			check("Tokenize", got.tokens, want.tokens)
			check("snippet.Split", got.split, want.split)
			check("Annotate", got.units, want.units)
			check("feature ids, named", got.features, want.features)
			check("Vectorize", got.vectors, want.vectors)
			check("ExtractEventsParallel", got.events, want.events)
			check("ExtractEventsParallel, drivers asked in reverse", got.reverse, want.events)
		})
	}
}

// goldenResult is what annotationDigests measures: the world's size and
// one digest per layer. reverse is the events digest with the drivers
// asked for in reverse order, which must equal events: one batch pass
// scores every driver, so each order takes some drivers' events from
// the stash and computes the others'.
type goldenResult struct {
	pages, snippets                           int
	sentences, tokens, split, units, features string
	vectors, events, reverse                  string
}

// annotationDigests runs every layer of the per-snippet path over the
// default world of the given seed. Drivers train on a reduced sample
// (600 negatives, top 60 per smart query) so the test stays fast; the
// trained vocabularies and classifiers still depend on every
// annotation the training data went through.
func annotationDigests(t *testing.T, seed int64) goldenResult {
	t.Helper()
	gen := corpus.NewGenerator(corpus.Config{Seed: seed})
	docs := gen.World()
	w := BuildWeb(docs)
	sys := New(w, Config{Seed: seed, NegativeCount: 600, TopK: 60})
	for _, d := range DefaultDrivers() {
		var pure []string
		for _, s := range gen.PurePositives(corpus.Driver(d.ID), 20) {
			pure = append(pure, s.Text)
		}
		if _, err := sys.AddDriver(d, pure); err != nil {
			t.Fatalf("AddDriver(%s): %v", d.ID, err)
		}
	}
	ids := sys.Drivers()
	sort.Strings(ids)

	sentences, tokens, split := newDigest(), newDigest(), newDigest()
	units, features, vectors := newDigest(), newDigest(), newDigest()
	def, bow := feature.DefaultPolicy(), feature.BagOfWordsPolicy()
	grown := feature.NewVocab()
	// names abstracts through a table of its own, which it grows, and
	// renders the ids as the feature names the digests were taken over.
	tab := feature.NewTable()
	names := func(us []annotate.Unit, p feature.Policy) []string {
		var out []string
		for _, id := range tab.Compile(p).AppendInterned(nil, us) {
			out = append(out, tab.Name(id))
		}
		return out
	}
	var counts feature.Counts
	res := goldenResult{pages: len(docs)}
	var pages []*web.Page
	for _, d := range docs {
		p, ok := w.Page(d.URL)
		if !ok {
			t.Fatalf("page %s missing from the web", d.URL)
		}
		pages = append(pages, p)
		text := p.Text
		for _, s := range textproc.SplitSentences(text) {
			sentences.str(s.Text).int(s.Start).int(s.End)
		}
		sentences.int(-1)
		for _, tok := range textproc.Tokenize(text) {
			tokens.str(tok.Text).int(int(tok.Kind)).int(tok.Start).int(tok.End)
		}
		tokens.int(-1)
		snips := snippet.Generator{}.Split(p.URL, text)
		res.snippets += len(snips)
		for _, sn := range snips {
			split.str(sn.ID).str(sn.DocID).int(sn.Index).str(sn.Text).
				int(sn.SentFrom).int(sn.SentTo).int(sn.Start).int(sn.End)
			us := sys.Annotator().Annotate(sn.Text)
			for _, u := range us {
				units.str(u.Text).str(string(u.Entity)).str(string(u.POS))
			}
			units.int(-1)
			features.strs(names(us, def)).strs(names(us, bow))
			vectors.vector(feature.Vectorize(grown, names(us, bow), true))
			for _, id := range ids {
				td := sys.drivers[id]
				vectors.vector(td.proj.AppendVector(nil, &counts, sys.table.Compile(td.policy).AppendIDs(nil, us)))
			}
		}
		split.int(-1)
	}
	vectors.int(grown.Size())

	res.sentences, res.tokens, res.split = sentences.sum(), tokens.sum(), split.sum()
	res.units, res.features, res.vectors = units.sum(), features.sum(), vectors.sum()
	reverse := slices.Clone(ids)
	slices.Reverse(reverse)
	res.events = eventsDigest(t, sys, ids, pages, ids)
	res.reverse = eventsDigest(t, sys, ids, pages, reverse)
	return res
}

// eventsDigest asks for each driver's events in the order given, then
// hashes them in sorted-ID order.
func eventsDigest(t *testing.T, sys *System, sorted []string, pages []*web.Page, order []string) string {
	t.Helper()
	byDriver := make(map[string][]rank.Event)
	for _, id := range order {
		evs, err := sys.ExtractEventsParallel(id, pages, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		byDriver[id] = evs
	}
	events := newDigest()
	for _, id := range sorted {
		for _, e := range byDriver[id] {
			events.str(e.SnippetID).str(e.Text).str(e.Driver).str(e.Company).
				f64(e.Score).f64(e.Orientation)
		}
		events.int(len(byDriver[id]))
	}
	return events.sum()
}

// goldenDigest hashes a stream of length-prefixed strings, integers and
// exact float bits, so no two different outputs hash the same bytes.
type goldenDigest struct{ h hash.Hash }

func newDigest() goldenDigest { return goldenDigest{sha256.New()} }

func (d goldenDigest) str(s string) goldenDigest {
	d.int(len(s))
	d.h.Write([]byte(s))
	return d
}

func (d goldenDigest) strs(ss []string) goldenDigest {
	d.int(len(ss))
	for _, s := range ss {
		d.str(s)
	}
	return d
}

func (d goldenDigest) int(n int) goldenDigest {
	d.h.Write(strconv.AppendInt(nil, int64(n), 10))
	d.h.Write([]byte{';'})
	return d
}

func (d goldenDigest) f64(x float64) goldenDigest {
	d.h.Write(strconv.AppendUint(nil, math.Float64bits(x), 16))
	d.h.Write([]byte{';'})
	return d
}

func (d goldenDigest) vector(v feature.Vector) goldenDigest {
	d.int(len(v))
	for _, term := range v {
		d.int(term.ID).f64(term.W)
	}
	return d
}

func (d goldenDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
