package annotate

import (
	"testing"

	"etap/internal/ner"
	"etap/internal/pos"
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

func BenchmarkAnnotate(b *testing.B) {
	b.ReportAllocs()
	a := New(nil)
	text := "IBM paid $160 million for Daksh on January 12, 2004 and Mr. Smith, the new CEO, praised the 10% growth in New York."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Annotate(text)
	}
}
