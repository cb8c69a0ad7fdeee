package annotate

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"etap/internal/corpus"
	"etap/internal/ner"
	"etap/internal/pos"
	"etap/internal/snippet"
)

func TestAnnotateMixesEntitiesAndPOS(t *testing.T) {
	a := New(nil)
	units := a.Annotate("IBM acquired Daksh for $160 million.")
	// Expected: ORG, vb(acquired), ORG, CURRENCY ("for" is IN).
	var cats []string
	for _, u := range units {
		if u.IsEntity() {
			cats = append(cats, string(u.Entity))
		} else {
			cats = append(cats, string(u.POS))
		}
	}
	want := []string{"ORG", "vb", "ORG", "in", "CURRENCY"}
	if len(cats) != len(want) {
		t.Fatalf("units = %v, want %v", cats, want)
	}
	for i := range want {
		if cats[i] != want[i] {
			t.Errorf("unit %d = %q, want %q", i, cats[i], want[i])
		}
	}
}

func TestAnnotateCollapsesEntitySpan(t *testing.T) {
	a := New(nil)
	units := a.Annotate("The new Chief Executive Officer arrived.")
	var desig []Unit
	for _, u := range units {
		if u.Entity == ner.DESIG {
			desig = append(desig, u)
		}
	}
	if len(desig) != 1 || desig[0].Text != "Chief Executive Officer" {
		t.Fatalf("desig units = %+v", desig)
	}
}

func TestAnnotateDropsPunctuation(t *testing.T) {
	a := New(nil)
	units := a.Annotate("Profits, however, fell.")
	for _, u := range units {
		if u.Text == "," || u.Text == "." {
			t.Errorf("punctuation survived: %+v", u)
		}
	}
}

func TestAnnotatePOSCoarse(t *testing.T) {
	a := New(nil)
	units := a.Annotate("The company announced results quickly.")
	byText := map[string]pos.Tag{}
	for _, u := range units {
		if !u.IsEntity() {
			byText[u.Lower()] = u.POS
		}
	}
	if byText["announced"] != pos.TagVB {
		t.Errorf("announced: %q, want coarse vb", byText["announced"])
	}
	if byText["quickly"] != pos.TagRB {
		t.Errorf("quickly: %q, want rb", byText["quickly"])
	}
}

func TestEntityCategories(t *testing.T) {
	a := New(nil)
	units := a.Annotate("Mr. Smith, the new CEO of Halcyon, arrived in Boston.")
	cats := EntityCategories(units)
	for _, want := range []ner.Category{ner.PRSN, ner.DESIG, ner.ORG, ner.PLC} {
		if !cats[want] {
			t.Errorf("missing category %s in %v", want, cats)
		}
	}
}

func TestCountEntities(t *testing.T) {
	a := New(nil)
	units := a.Annotate("IBM acquired Daksh while Oracle watched.")
	if n := CountEntities(units, ner.ORG); n != 3 {
		t.Errorf("ORG count = %d, want 3", n)
	}
	if n := CountEntities(units, ner.PRSN); n != 0 {
		t.Errorf("PRSN count = %d, want 0", n)
	}
}

func TestAnnotateEmpty(t *testing.T) {
	a := New(nil)
	if units := a.Annotate(""); len(units) != 0 {
		t.Errorf("empty: %v", units)
	}
}

func TestAnnotateGeneralizationExample(t *testing.T) {
	// The paper's generalization example: "IBM made profits of $5 billion
	// in the year 1996" → ORGANIZATION ... CURRENCY ... YEAR.
	a := New(nil)
	units := a.Annotate("IBM made profits of $5 billion in the year 1996")
	cats := EntityCategories(units)
	if !cats[ner.ORG] || !cats[ner.CURRENCY] || !cats[ner.YEAR] {
		t.Fatalf("generalization failed: %v (units %+v)", cats, units)
	}
}

// TestWarmAnnotateAllocs pins what a warmed Annotate allocates: the
// returned units, nothing per token. Tokens, their lower-cased forms,
// tags and entities go into pooled scratch, and every word is already
// in textproc's word table; before both, the same call made 5
// allocations (tokens, lowered forms, "The" lower-cased, tags, units),
// and with tags outside the scratch 2. AppendUnits into a reused buffer,
// the scoring kernel's call, allocates nothing.
func TestWarmAnnotateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	a := New(nil)
	const text = "The company announced results quickly."
	a.Annotate(text)
	if allocs := testing.AllocsPerRun(100, func() { a.Annotate(text) }); allocs > 1 {
		t.Errorf("a warmed Annotate(%q) allocated %v times, want at most 1", text, allocs)
	}
	buf := a.AppendUnits(nil, text)
	if allocs := testing.AllocsPerRun(100, func() { buf = a.AppendUnits(buf[:0], text) }); allocs != 0 {
		t.Errorf("a warmed AppendUnits(%q) into a reused buffer allocated %v times, want 0", text, allocs)
	}
}

// BenchmarkAnnotate measures a snippet whose words are all in the word
// table (hit), snippets whose content words are all new to it (miss):
// they cycle through far more distinct words than the table holds, and
// every snippet of the leads benchmark world in turn (corpus: seven
// times the default world, 18,777 snippets), reporting ns per snippet.
func BenchmarkAnnotate(b *testing.B) {
	a := New(nil)
	b.Run("corpus", func(b *testing.B) {
		b.ReportAllocs()
		texts := leadsSnippets()
		var units []Unit
		for _, t := range texts {
			units = a.AppendUnits(units[:0], t)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range texts {
				units = a.AppendUnits(units[:0], t)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(texts)), "ns/snippet")
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		text := "IBM paid $160 million for Daksh on January 12, 2004 and Mr. Smith, the new CEO, praised the 10% growth in New York."
		for i := 0; i < b.N; i++ {
			a.Annotate(text)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		texts := make([]string, 1<<16)
		for i := range texts {
			w := strconv.FormatInt(int64(i), 26)
			w = strings.Map(func(r rune) rune {
				if r <= '9' {
					return 'q' + r - '0'
				}
				return r
			}, w)
			texts[i] = "Acme " + w + "ed the " + w + "ations and " + w + "ing its " + w + "ers quickly."
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Annotate(texts[i%len(texts)])
		}
	})
}

// leadsSnippets returns the snippet texts of the world the leads
// benchmark workload builds (etapbench/leads.go), split as the scoring
// kernel splits its pages.
var leadsSnippets = sync.OnceValue(func() []string {
	docs := corpus.NewGenerator(corpus.Config{Seed: 1, RelevantPerDriver: 840, HardNegativePerDriver: 280,
		BackgroundDocs: 2800, FamousEventDocs: 56}).World()
	var texts []string
	for i := range docs {
		for _, sn := range (snippet.Generator{N: snippet.DefaultN}).Split(docs[i].URL, docs[i].Text()) {
			texts = append(texts, sn.Text)
		}
	}
	return texts
})
