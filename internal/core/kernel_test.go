package core

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"etap/internal/annotate"
	"etap/internal/corpus"
	"etap/internal/feature"
	"etap/internal/ner"
	"etap/internal/pos"
	"etap/internal/rank"
	"etap/internal/snippet"
	"etap/internal/textproc"
	"etap/internal/web"
)

// TestBatchAndStreamingShareSystem runs batch extractions, one per
// driver as batch callers make them, concurrently with streaming
// ExtractAllEvents calls over one page each, all on one System: the
// two paths share the kernel's scratch pool and the stash. Every call
// must return what it returns alone. Run it under the race detector:
//
//	go test -race -count=10 -run TestBatchAndStreamingShareSystem ./internal/core
func TestBatchAndStreamingShareSystem(t *testing.T) {
	f := newFixture(t, 55, Config{Seed: 55})
	for _, d := range corpus.Drivers {
		f.addDriver(t, d, 10)
	}
	pages := f.batchPages(t, 60)
	batchWant := make(map[string][]rank.Event)
	for _, d := range corpus.Drivers {
		batchWant[string(d)] = freshExtract(t, f.sys, string(d), pages, 0.5)
	}
	streamWant := make([][]rank.Event, len(pages))
	streamed := 0
	for i, p := range pages {
		streamWant[i] = f.sys.ExtractAllEvents([]*web.Page{p}, 0.5)
		streamed += len(streamWant[i])
	}
	if streamed == 0 {
		t.Fatal("no streamed events: the comparison proves nothing")
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for _, d := range corpus.Drivers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := f.sys.ExtractEventsParallel(string(d), pages, 0.5, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, batchWant[string(d)]) {
					t.Errorf("round %d, batch %s: %d events, want %d, or they differ",
						round, d, len(got), len(batchWant[string(d)]))
				}
			}()
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(pages); i += 2 {
					if got := f.sys.ExtractAllEvents([]*web.Page{pages[i]}, 0.5); !reflect.DeepEqual(got, streamWant[i]) {
						t.Errorf("round %d, page %d streamed: %d events, want %d, or they differ",
							round, i, len(got), len(streamWant[i]))
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestWarmExtractAllEventsAllocs bounds what a warmed streaming
// extraction of one page allocates, per event it returns. Annotation,
// abstraction and scoring write into the kernel's pooled scratch, and
// the scorer is built once per driver set, so what remains is
// annotation's few and per event (its snippet ID and the result).
func TestWarmExtractAllEventsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	f := newFixture(t, 56, Config{Seed: 56, DisableMetrics: true})
	for _, d := range corpus.Drivers {
		f.addDriver(t, d, 10)
	}
	// The page with the most events among the first hundred.
	var page []*web.Page
	events := 0
	for _, p := range f.batchPages(t, 100) {
		if n := len(f.sys.ExtractAllEvents([]*web.Page{p}, 0.5)); n > events {
			page, events = []*web.Page{p}, n
		}
	}
	if events == 0 {
		t.Fatal("no page has an event")
	}
	allocs := testing.AllocsPerRun(50, func() { f.sys.ExtractAllEvents(page, 0.5) })
	t.Logf("%v allocations for %d events", allocs, events)
	if perEvent := allocs / float64(events); perEvent > maxAllocsPerEvent {
		t.Errorf("a warmed ExtractAllEvents allocated %v times for %d events (%.1f per event), want at most %d per event",
			allocs, events, perEvent, maxAllocsPerEvent)
	}
}

// maxAllocsPerEvent bounds TestWarmExtractAllEventsAllocs. Before the
// kernel wrote into pooled scratch, its page cost 152 allocations for 5
// events (30 per event); with it, 72; with feature ids, snippets split
// into scratch and the scorer built once per driver set, 14.
const maxAllocsPerEvent = 6

// TestEventsShareTheirPageText checks that an extracted event's text is
// a slice of its page's text, not a copy: generated pages separate
// their sentences by single spaces.
func TestEventsShareTheirPageText(t *testing.T) {
	f := newFixture(t, 57, Config{Seed: 57})
	f.addDriver(t, corpus.ChangeInManagement, 10)
	pages := f.batchPages(t, 120)
	byURL := make(map[string]string, len(pages))
	for _, p := range pages {
		byURL[p.URL] = p.Text
	}
	events, err := f.sys.ExtractEvents(string(corpus.ChangeInManagement), pages, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events: the check proves nothing")
	}
	for _, ev := range events {
		text := byURL[ev.SnippetID[:strings.LastIndexByte(ev.SnippetID, '#')]]
		base := uintptr(unsafe.Pointer(unsafe.StringData(text)))
		at := uintptr(unsafe.Pointer(unsafe.StringData(ev.Text)))
		if at < base || at+uintptr(len(ev.Text)) > base+uintptr(len(text)) {
			t.Fatalf("event %s holds a copy of its snippet's text", ev.SnippetID)
		}
	}
}

// TestWarmKernelAllocs takes pages through the scoring kernel with one
// warmed scratch and a threshold no snippet reaches, so no event is
// built: splitting, annotation, abstraction to feature ids and scoring
// by every driver then allocate at most maxKernelAllocsPerSnippet times
// per snippet. Feature names and snippet IDs are no longer built for
// snippets that do not become events.
func TestWarmKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	f := newFixture(t, 56, Config{Seed: 56, DisableMetrics: true})
	for _, d := range corpus.Drivers {
		f.addDriver(t, d, 10)
	}
	pages := f.batchPages(t, 40)
	sc := f.sys.scorer()
	w := getScratch(sc)
	defer w.release()
	snippets := 0
	for _, p := range pages {
		f.sys.scorePage(sc, w, p, 2)
		snippets += len(w.snips)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, p := range pages {
			f.sys.scorePage(sc, w, p, 2)
		}
	})
	t.Logf("%v allocations for %d pages, %d snippets", allocs, len(pages), snippets)
	if perSnippet := allocs / float64(snippets); perSnippet > maxKernelAllocsPerSnippet {
		t.Errorf("a warmed kernel allocated %v times for %d snippets (%.2f per snippet), want at most %v",
			allocs, snippets, perSnippet, maxKernelAllocsPerSnippet)
	}
}

// maxKernelAllocsPerSnippet bounds TestWarmKernelAllocs. What is left
// is annotation's: the text of an entity whose tokens are not spaced by
// single blanks (about 0.8 per snippet over these pages), and the few
// words computed afresh after two other words of their word-table set
// arrived (1.0 per snippet in all). When a word lost its slot to any
// other, the kernel made 1.7 per snippet; building a name per
// instance-valued feature and an ID per snippet cost more than ten.
const maxKernelAllocsPerSnippet = 1.2

// TestTrainingKeepsNoUnits trains every default driver and walks all
// that the System holds (its web aside: pages and their index hold no
// annotations) for annotate.Unit values. Training keeps the shared
// negatives as feature ids, so no annotation of a training snippet
// stays reachable once AddDriver returns.
func TestTrainingKeepsNoUnits(t *testing.T) {
	f := newFixture(t, 58, Config{Seed: 58})
	for _, d := range corpus.Drivers {
		f.addDriver(t, d, 10)
	}
	if len(f.sys.negIDs) == 0 {
		t.Fatal("training kept no negatives: the walk proves nothing")
	}
	w := unitWalk{seen: map[uintptr]bool{}, holds: map[reflect.Type]bool{}}
	w.walk(reflect.ValueOf(f.sys).Elem())
	if w.units > 0 {
		t.Fatalf("%d annotate.Unit values reachable from a trained System", w.units)
	}
}

// unitWalk counts the annotate.Unit values reachable from a value,
// visiting each pointer once and skipping the web.
type unitWalk struct {
	seen  map[uintptr]bool
	holds map[reflect.Type]bool // whether a type can reach a Unit
	units int
}

var (
	unitType = reflect.TypeOf(annotate.Unit{})
	webType  = reflect.TypeOf(web.Web{})
)

// mayHold reports whether a value of type ty can reach a Unit, so the
// walk skips float slices, strings and the like without visiting them.
func (w *unitWalk) mayHold(ty reflect.Type) bool {
	if h, ok := w.holds[ty]; ok {
		return h
	}
	w.holds[ty] = false // a cycle through ty adds nothing
	h := false
	switch ty.Kind() {
	case reflect.Interface:
		h = true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		h = ty.Elem() == unitType || w.mayHold(ty.Elem())
	case reflect.Map:
		h = w.mayHold(ty.Key()) || w.mayHold(ty.Elem())
	case reflect.Struct:
		h = ty == unitType
		for i := 0; i < ty.NumField() && !h; i++ {
			h = w.mayHold(ty.Field(i).Type)
		}
	}
	w.holds[ty] = h
	return h
}

func (w *unitWalk) walk(v reflect.Value) {
	if !v.IsValid() || v.Type() == webType || !w.mayHold(v.Type()) {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || w.seen[v.Pointer()] {
			return
		}
		w.seen[v.Pointer()] = true
		w.walk(v.Elem())
	case reflect.Interface:
		w.walk(v.Elem())
	case reflect.Slice, reflect.Array:
		if v.Type().Elem() == unitType {
			w.units += v.Len()
			return
		}
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			w.walk(it.Key())
			w.walk(it.Value())
		}
	case reflect.Struct:
		if v.Type() == unitType {
			w.units++
			return
		}
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i))
		}
	}
}

// TestScorerCachedPerDriverSet checks that batch extraction, streaming
// extraction and Score all use the scorer the last AddDriver built,
// rather than building one per call or per streamed document, and that
// adding a driver replaces it.
func TestScorerCachedPerDriverSet(t *testing.T) {
	f := newFixture(t, 59, Config{Seed: 59})
	f.addDriver(t, corpus.ChangeInManagement, 10)
	sc := f.sys.scorer()
	pages := f.batchPages(t, 20)
	f.sys.ExtractAllEvents(pages[:1], 0.5)
	if _, err := f.sys.ExtractEventsParallel(string(corpus.ChangeInManagement), pages, 0.5, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.sys.Score(string(corpus.ChangeInManagement), "Acme named a new chief executive."); err != nil {
		t.Fatal(err)
	}
	if f.sys.scorer() != sc {
		t.Fatal("extraction or Score replaced the scorer")
	}
	f.addDriver(t, corpus.RevenueGrowth, 10)
	if got := f.sys.scorer(); got == sc || len(got.drivers) != 2 {
		t.Fatal("AddDriver did not rebuild the scorer for the new driver set")
	}
}

// nameFeatures is abstraction by feature name, as it was before feature
// ids: one name per instance-valued unit ("w=<stem>" for a word that is
// not a stop word, "<CAT>=<lower>" for an entity) and one "ENT=<CAT>"
// or "POS=<tag>" per presence-absence category present.
func nameFeatures(units []annotate.Unit, p feature.Policy) []string {
	var out []string
	seen := map[string]bool{}
	for _, u := range units {
		c := feature.POSCategory(u.POS)
		if u.IsEntity() {
			c = feature.EntityCategory(u.Entity)
		}
		rep, ok := p[c]
		switch {
		case !ok || rep == feature.RepDrop:
		case rep == feature.RepPA:
			name := "POS=" + string(c.POS)
			if u.IsEntity() {
				name = "ENT=" + string(c.Entity)
			}
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		case u.IsEntity():
			out = append(out, string(u.Entity)+"="+strings.ToLower(u.Text))
		case !textproc.IsStopword(strings.ToLower(u.Text)):
			out = append(out, "w="+textproc.Stem(strings.ToLower(u.Text)))
		}
	}
	return out
}

// TestScoreMatchesNamePath trains two drivers under each of the
// default, bag-of-words, a mixed and the RIG-chosen (AutoPolicy)
// policies, then scores snippets through the kernel (Score: compiled
// policies and ordered vectors) and through the name path (feature
// names, the vocabulary's map and a sorted vector): every probability
// must have the same bits.
func TestScoreMatchesNamePath(t *testing.T) {
	mixed := feature.DefaultPolicy()
	mixed[feature.EntityCategory(ner.ORG)] = feature.RepIV
	mixed[feature.POSCategory(pos.TagIN)] = feature.RepPA
	mixed[feature.POSCategory(pos.TagRB)] = feature.RepDrop
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{Seed: 61}},
		{"bag-of-words", Config{Seed: 61, Policy: feature.BagOfWordsPolicy()}},
		{"mixed", Config{Seed: 61, Policy: mixed}},
		{"auto", Config{Seed: 61, AutoPolicy: true}},
	} {
		f := newFixture(t, 61, c.cfg)
		f.addDriver(t, corpus.ChangeInManagement, 10)
		f.addDriver(t, corpus.RevenueGrowth, 10)
		scored, positive := 0, 0
		for _, p := range f.batchPages(t, len(f.docs)) {
			for _, sn := range (snippet.Generator{N: f.sys.cfg.SnippetN}).Split(p.URL, p.Text) {
				units := f.sys.ann.Annotate(sn.Text)
				for id, td := range f.sys.drivers {
					got, err := f.sys.Score(id, sn.Text)
					if err != nil {
						t.Fatal(err)
					}
					want := td.clf.Prob(feature.Vectorize(td.vocab, nameFeatures(units, td.policy), false))
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, %s, %q: Score = %v, name path %v", c.name, id, sn.Text, got, want)
					}
					scored++
					if got >= 0.5 {
						positive++
					}
				}
			}
		}
		if positive == 0 || positive == scored {
			t.Fatalf("%s: %d of %d snippets positive: the comparison proves little", c.name, positive, scored)
		}
	}
}
