package corpus

import (
	"strings"
	"testing"

	"etap/internal/ner"
	"etap/internal/textproc"
)

func TestWorldDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, RelevantPerDriver: 5, BackgroundDocs: 10, HardNegativePerDriver: 2}
	a := NewGenerator(cfg).World()
	b := NewGenerator(cfg).World()
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Text() != b[i].Text() || a[i].URL != b[i].URL {
			t.Fatalf("doc %d differs between identical seeds", i)
		}
		if len(a[i].Links) != len(b[i].Links) {
			t.Fatalf("doc %d link counts differ", i)
		}
	}
}

func TestWorldComposition(t *testing.T) {
	cfg := Config{Seed: 1, RelevantPerDriver: 10, BackgroundDocs: 20, HardNegativePerDriver: 5, FamousEventDocs: 2}
	docs := NewGenerator(cfg).World()
	counts := map[DocKind]int{}
	for _, d := range docs {
		counts[d.Kind]++
	}
	// 10 per driver x 3 drivers + 2 famous-event pages x 5 pairs.
	if counts[KindRelevant] != 40 {
		t.Errorf("relevant = %d, want 40", counts[KindRelevant])
	}
	if counts[KindBackground] != 20 {
		t.Errorf("background = %d, want 20", counts[KindBackground])
	}
	if counts[KindHardNegative] != 15 {
		t.Errorf("hard negative = %d, want 15", counts[KindHardNegative])
	}
}

func TestRelevantDocHasTriggersAndNoise(t *testing.T) {
	g := NewGenerator(Config{Seed: 2})
	for _, d := range Drivers {
		doc := g.RelevantDoc(d)
		if doc.TriggerCount(d) < 2 {
			t.Errorf("%s: only %d triggers", d, doc.TriggerCount(d))
		}
		nonTrigger := 0
		for _, s := range doc.Sentences {
			if s.Driver == "" {
				nonTrigger++
			}
		}
		if nonTrigger < 2 {
			t.Errorf("%s: only %d non-trigger sentences (Figure 6 needs noise on relevant pages)", d, nonTrigger)
		}
		if doc.Company == "" {
			t.Errorf("%s: no subject company", d)
		}
	}
}

func TestBackgroundDocHasNoTriggers(t *testing.T) {
	g := NewGenerator(Config{Seed: 3})
	for i := 0; i < 20; i++ {
		doc := g.BackgroundDoc()
		for _, drv := range Drivers {
			if doc.TriggerCount(drv) != 0 {
				t.Fatalf("background doc has a %s trigger", drv)
			}
		}
	}
}

func TestHardNegativeDocMisleadingOnly(t *testing.T) {
	g := NewGenerator(Config{Seed: 4})
	doc := g.HardNegativeDoc(ChangeInManagement)
	if doc.TriggerCount(ChangeInManagement) != 0 {
		t.Fatal("hard negative contains a real trigger")
	}
	misleading := 0
	for _, s := range doc.Sentences {
		if s.Misleading {
			misleading++
		}
	}
	if misleading < 2 {
		t.Errorf("only %d misleading sentences", misleading)
	}
}

func TestLinksPointAtRealDocs(t *testing.T) {
	cfg := Config{Seed: 5, RelevantPerDriver: 5, BackgroundDocs: 10, HardNegativePerDriver: 2}
	docs := NewGenerator(cfg).World()
	byURL := map[string]bool{}
	for _, d := range docs {
		byURL[d.URL] = true
	}
	for _, d := range docs {
		if len(d.Links) == 0 {
			t.Errorf("%s has no links", d.ID)
		}
		for _, l := range d.Links {
			if !byURL[l] {
				t.Errorf("%s links to nonexistent %s", d.ID, l)
			}
			if l == d.URL {
				t.Errorf("%s links to itself", d.ID)
			}
		}
	}
}

func TestDocumentTextSplitsBackToSentences(t *testing.T) {
	// The rule-based chunker must recover the generated sentence
	// boundaries; the whole pipeline depends on this agreement.
	g := NewGenerator(Config{Seed: 6})
	for _, drv := range Drivers {
		doc := g.RelevantDoc(drv)
		got := textproc.SplitSentences(doc.Text())
		if len(got) != len(doc.Sentences) {
			var gotTexts []string
			for _, s := range got {
				gotTexts = append(gotTexts, s.Text)
			}
			t.Errorf("%s: chunker found %d sentences, generator wrote %d\nchunker: %q",
				drv, len(got), len(doc.Sentences), gotTexts)
		}
	}
}

func TestTriggerSentencesCarryEntities(t *testing.T) {
	// Trigger sentences must be NER-annotatable: M&A triggers carry ORG,
	// CiM triggers carry DESIG, RG triggers carry PRCNT or CURRENCY
	// (most of the time — unknown-entity draws are allowed).
	g := NewGenerator(Config{Seed: 7, UnknownEntityRate: 0.0001})
	rec := ner.NewRecognizer()
	check := func(d Driver, want ner.Category) {
		hits := 0
		for i := 0; i < 30; i++ {
			for _, e := range rec.RecognizeText(g.text(g.trigger(d, g.company(), false))) {
				if e.Category == want {
					hits++
					break
				}
			}
		}
		if hits < 24 {
			t.Errorf("%s: only %d/30 triggers carry %s", d, hits, want)
		}
	}
	check(MergersAcquisitions, ner.ORG)
	check(ChangeInManagement, ner.DESIG)
	check(RevenueGrowth, ner.ORG)
}

func TestPurePositives(t *testing.T) {
	g := NewGenerator(Config{Seed: 8})
	snips := g.PurePositives(MergersAcquisitions, 20)
	if len(snips) != 20 {
		t.Fatalf("got %d", len(snips))
	}
	for _, s := range snips {
		if s.Driver != MergersAcquisitions {
			t.Errorf("wrong driver %q", s.Driver)
		}
		if s.Company == "" {
			t.Error("no company")
		}
		if s.Text == "" {
			t.Error("empty text")
		}
	}
}

func TestPurePositivesUseHeldoutTemplates(t *testing.T) {
	// No pure positive snippet may be a realization of a training
	// template: check that the distinctive training verbs cannot all
	// appear. We verify structurally: held-out templates differ from
	// training ones, so each snippet must contain one of the held-out
	// skeleton fragments.
	g := NewGenerator(Config{Seed: 9})
	fragments := []string{
		"in cash", "creates the largest firm", "swallowed rival",
		"Analysts expect", "outbid competitors", "Regulators cleared",
		"is now part of", "tie-up reshapes",
	}
	for _, s := range g.PurePositives(MergersAcquisitions, 30) {
		found := false
		for _, f := range fragments {
			if strings.Contains(s.Text, f) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("snippet does not match any held-out template: %q", s.Text)
		}
	}
}

func TestBackgroundSnippets(t *testing.T) {
	g := NewGenerator(Config{Seed: 10})
	snips := g.BackgroundSnippets(50)
	if len(snips) != 50 {
		t.Fatalf("got %d", len(snips))
	}
	for _, s := range snips {
		if s.Driver != "" {
			t.Errorf("background snippet labeled %q", s.Driver)
		}
	}
}

func TestMisleadingSnippets(t *testing.T) {
	g := NewGenerator(Config{Seed: 11})
	snips := g.MisleadingSnippets(ChangeInManagement, 10)
	for _, s := range snips {
		if s.Driver != "" {
			t.Errorf("misleading snippet labeled positive: %q", s.Text)
		}
	}
}

func TestContainsTriggerAndCompanies(t *testing.T) {
	g := NewGenerator(Config{Seed: 12})
	doc := g.RelevantDoc(MergersAcquisitions)
	var trig Sentence
	for _, s := range doc.Sentences {
		if s.Driver == MergersAcquisitions {
			trig = s
			break
		}
	}
	window := trig.Text + " " + "Unrelated tail sentence."
	if !doc.ContainsTrigger(window, MergersAcquisitions) {
		t.Error("trigger not found in window containing it")
	}
	if doc.ContainsTrigger("Totally unrelated text.", MergersAcquisitions) {
		t.Error("false positive trigger detection")
	}
	companies := doc.TriggerCompanies(window, MergersAcquisitions)
	if len(companies) != 1 || companies[0] != trig.Company {
		t.Errorf("companies = %v, want [%s]", companies, trig.Company)
	}
}

func TestUnknownEntityRateZeroKeepsGazetteerNames(t *testing.T) {
	g := NewGenerator(Config{Seed: 13, UnknownEntityRate: 0.0001})
	rec := ner.NewRecognizer()
	misses := 0
	for i := 0; i < 40; i++ {
		c := g.company()
		ents := rec.RecognizeText("Analysts said " + c + " performed well.")
		found := false
		for _, e := range ents {
			if e.Category == ner.ORG {
				found = true
			}
		}
		if !found {
			misses++
		}
	}
	if misses > 2 {
		t.Errorf("NER missed %d/40 gazetteer companies", misses)
	}
}

func TestOrientationPhraseAccessors(t *testing.T) {
	pos := PositivePhrases()
	neg := NegativePhrases()
	if len(pos) == 0 || len(neg) == 0 {
		t.Fatal("empty phrase lists")
	}
	pos[0] = "mutated"
	if PositivePhrases()[0] == "mutated" {
		t.Error("accessor returned aliased slice")
	}
}

// Every template in every pool parses into known placeholders only, so
// a typo such as {ORG} cannot ship literally into generated pages.
// Package init already panics on the first bad template; this test
// names each one and shows the parser rejects malformed placeholders.
func TestEveryTemplateParses(t *testing.T) {
	type pool struct {
		name string
		tpls []string
	}
	pools := []pool{
		{"neutralBusinessTemplates", neutralBusinessTemplates},
		{"noiseTemplates", noiseTemplates},
		{"boilerplateTemplates", boilerplateTemplates},
	}
	for _, p := range []struct {
		name     string
		byDriver map[Driver][]string
	}{
		{"trainTemplates", trainTemplates},
		{"heldoutTemplates", heldoutTemplates},
		{"misleadingTemplates", misleadingTemplates},
		{"misleadingHeldout", misleadingHeldout},
	} {
		for _, d := range Drivers {
			pools = append(pools, pool{p.name + "[" + string(d) + "]", p.byDriver[d]})
		}
	}
	for _, p := range pools {
		for _, s := range p.tpls {
			if _, err := parseTemplate(s); err != nil {
				t.Errorf("%s: %v", p.name, err)
			}
		}
	}
	for _, bad := range []string{"{ORG} merged.", "{} merged.", "{ORG1 merged.", "ORG1} merged."} {
		if _, err := parseTemplate(bad); err == nil {
			t.Errorf("parseTemplate(%q) accepted a malformed placeholder", bad)
		}
	}
}

func BenchmarkWorld(b *testing.B) {
	cfg := Config{Seed: 20, RelevantPerDriver: 20, BackgroundDocs: 50, HardNegativePerDriver: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewGenerator(cfg).World()
	}
}
