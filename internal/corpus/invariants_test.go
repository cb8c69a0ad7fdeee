package corpus

import (
	"strings"
	"testing"
	"testing/quick"
)

// Property: for any small configuration, every generated document is
// well-formed — non-empty sentences, a title, a valid URL on a known
// host, valid links, and trigger labels consistent with its kind.
func TestWorldPropertyWellFormed(t *testing.T) {
	f := func(seed int64, rel, bg uint8) bool {
		cfg := Config{
			Seed:                  seed,
			RelevantPerDriver:     1 + int(rel)%8,
			BackgroundDocs:        1 + int(bg)%20,
			HardNegativePerDriver: 1,
			FamousEventDocs:       1,
		}
		docs := NewGenerator(cfg).World()
		urls := map[string]bool{}
		for _, d := range docs {
			urls[d.URL] = true
		}
		for _, d := range docs {
			if d.ID == "" || d.Title == "" || !strings.HasPrefix(d.URL, "http://") {
				return false
			}
			if len(d.Sentences) == 0 {
				return false
			}
			for _, s := range d.Sentences {
				if strings.TrimSpace(s.Text) == "" {
					return false
				}
				if s.Driver != "" && s.Misleading {
					return false // a sentence is a trigger or a near-miss, never both
				}
			}
			for _, l := range d.Links {
				if !urls[l] || l == d.URL {
					return false
				}
			}
			switch d.Kind {
			case KindRelevant:
				if d.TriggerCount(d.Driver) == 0 {
					return false
				}
			case KindBackground, KindHardNegative:
				for _, drv := range Drivers {
					if d.TriggerCount(drv) != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: trigger sentences always carry their subject company, and
// the company string appears in the sentence text (possibly as a prefix
// of a longer org mention).
func TestTriggerPropertyCompanyInText(t *testing.T) {
	g := NewGenerator(Config{Seed: 99})
	for i := 0; i < 100; i++ {
		for _, d := range Drivers {
			s := g.trigger(d, g.company(), i%2 == 0)
			text := g.text(s)
			if s.Company == "" {
				t.Fatalf("trigger without company: %+v", s)
			}
			if !strings.Contains(text, s.Company) {
				t.Fatalf("company %q absent from %q", s.Company, text)
			}
		}
	}
}

// Property: famous-event documents always carry triggers for both pinned
// organizations.
func TestFamousEventDocProperty(t *testing.T) {
	g := NewGenerator(Config{Seed: 100})
	for _, pair := range FamousPairs() {
		doc := g.FamousEventDoc(pair)
		if doc.Kind != KindRelevant || doc.Driver != MergersAcquisitions {
			t.Fatalf("famous doc misclassified: %+v", doc.Kind)
		}
		if doc.Company != pair[0] {
			t.Errorf("subject company = %q, want %q", doc.Company, pair[0])
		}
		text := doc.Text()
		if !strings.Contains(text, pair[0]) || !strings.Contains(text, pair[1]) {
			t.Errorf("famous pair %v not both mentioned", pair)
		}
	}
}

func TestRenderHTMLRoundTripsAllKinds(t *testing.T) {
	g := NewGenerator(Config{Seed: 101})
	docs := []Document{
		g.RelevantDoc(ChangeInManagement),
		g.HardNegativeDoc(RevenueGrowth),
		g.BackgroundDoc(),
	}
	for _, d := range docs {
		html := RenderHTML(&d)
		if !strings.Contains(html, "<article>") || !strings.Contains(html, "</html>") {
			t.Errorf("%s: malformed HTML", d.ID)
		}
		for _, s := range d.Sentences {
			if !strings.Contains(html, escape(s.Text)) {
				t.Errorf("%s: sentence missing from HTML: %q", d.ID, s.Text)
			}
		}
	}
}
