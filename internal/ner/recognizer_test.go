package ner

import (
	"testing"
	"testing/quick"

	"etap/internal/textproc"
)

func find(ents []Entity, cat Category) []string {
	var out []string
	for _, e := range ents {
		if e.Category == cat {
			out = append(out, e.Text)
		}
	}
	return out
}

func one(t *testing.T, ents []Entity, cat Category, want string) {
	t.Helper()
	got := find(ents, cat)
	if len(got) != 1 || got[0] != want {
		t.Errorf("%s: got %v, want [%s] (all: %+v)", cat, got, want, ents)
	}
}

func TestRecognizeKnownOrg(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("IBM acquired Daksh in a landmark deal.")
	got := find(ents, ORG)
	if len(got) != 2 || got[0] != "IBM" || got[1] != "Daksh" {
		t.Fatalf("orgs = %v, want [IBM Daksh]", got)
	}
}

func TestRecognizeOrgWithSuffix(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("Shares of Brellvane Inc rose sharply.")
	one(t, ents, ORG, "Brellvane Inc")
}

func TestRecognizeMultiwordOrgWithSuffix(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("The buyer was Silverlake Capital Group according to filings.")
	got := find(ents, ORG)
	if len(got) != 1 || got[0] != "Silverlake Capital Group" {
		t.Fatalf("orgs = %v", got)
	}
}

func TestRecognizeBareCompanyCore(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("Analysts expect Halcyon to report earnings.")
	one(t, ents, ORG, "Halcyon")
}

func TestRecognizePersonHonorific(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("Mr. Andersen was the CEO of the firm.")
	got := find(ents, PRSN)
	if len(got) != 1 || got[0] != "Mr . Andersen" && got[0] != "Mr. Andersen" {
		t.Fatalf("persons = %v", got)
	}
	one(t, ents, DESIG, "CEO")
}

func TestRecognizePersonFirstLast(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("The board appointed James Smith yesterday.")
	one(t, ents, PRSN, "James Smith")
}

func TestRecognizePersonUnknownSurname(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("The board named Mary Threlkeld president of the division.")
	one(t, ents, PRSN, "Mary Threlkeld")
}

func TestRecognizeDesignationMultiword(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("She became Chief Executive Officer last month.")
	one(t, ents, DESIG, "Chief Executive Officer")
	one(t, ents, PERIOD, "last month")
}

func TestRecognizeCurrencySymbol(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("The deal was worth $160 million at closing.")
	one(t, ents, CURRENCY, "$ 160 million")
}

func TestRecognizeCurrencyWords(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("They paid 5 billion dollars for the unit.")
	one(t, ents, CURRENCY, "5 billion dollars")
}

func TestRecognizePercent(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("Revenue grew 10% while margins rose 3.5 percent.")
	got := find(ents, PRCNT)
	if len(got) != 2 || got[0] != "10 %" || got[1] != "3.5 percent" {
		t.Fatalf("percents = %v", got)
	}
}

func TestRecognizeYearVsCount(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("In 2004 the firm hired 500 engineers.")
	one(t, ents, YEAR, "2004")
	one(t, ents, CNT, "500")
}

func TestRecognizePeriodDate(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("The merger closed on January 12, 2004 in New York.")
	one(t, ents, PERIOD, "January 12 , 2004")
	one(t, ents, PLC, "New York")
}

func TestRecognizeQuarter(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("Earnings for Q4 beat estimates in the fourth quarter.")
	got := find(ents, PERIOD)
	if len(got) != 2 || got[0] != "Q4" || got[1] != "fourth quarter" {
		t.Fatalf("periods = %v", got)
	}
}

func TestRecognizeTime(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("The call starts at 3:30 pm on Monday.")
	one(t, ents, TIM, "3 : 30 pm")
	one(t, ents, PERIOD, "Monday")
}

func TestRecognizeLength(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("The campus spans 40 acres near Austin.")
	one(t, ents, LNGTH, "40 acres")
	one(t, ents, PLC, "Austin")
}

func TestRecognizeProduct(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("They shipped WebSphere to enterprise customers.")
	one(t, ents, PROD, "WebSphere")
}

func TestRecognizeObject(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("The restructuring was called Project Horizon internally.")
	one(t, ents, OBJ, "Project Horizon")
}

func TestRecognizeSentenceInitialArticleNotInOrg(t *testing.T) {
	r := NewRecognizer()
	ents := r.RecognizeText("The Averon Labs annual report explains how revenue is recognized.")
	for _, e := range ents {
		if e.Category == ORG && (e.Text == "The Averon Labs" || e.Text[:4] == "The ") {
			t.Fatalf("article absorbed into ORG: %q", e.Text)
		}
	}
	one(t, ents, ORG, "Averon Labs")
}

func TestRecognizeNoFalsePositiveLowercase(t *testing.T) {
	r := NewRecognizer()
	// "may" is a month only when capitalized mid-pattern; lowercase "may"
	// must not be a PERIOD.
	ents := r.RecognizeText("the outcome may vary")
	if got := find(ents, PERIOD); len(got) != 0 {
		t.Fatalf("PERIOD = %v, want none", got)
	}
}

func TestRecognizeEntitiesAreNonOverlapping(t *testing.T) {
	r := NewRecognizer()
	text := "IBM paid $160 million for Daksh on January 12, 2004 and Mr. Smith, the new CEO, praised the 10% growth in New York."
	ents := r.RecognizeText(text)
	prev := -1
	for _, e := range ents {
		if e.TokenStart < prev {
			t.Fatalf("overlapping entities: %+v", ents)
		}
		prev = e.TokenEnd
	}
	if len(ents) < 6 {
		t.Fatalf("expected rich annotation, got %+v", ents)
	}
}

func TestRecognizeByteOffsets(t *testing.T) {
	r := NewRecognizer()
	text := "IBM acquired Daksh for $160 million."
	for _, e := range r.RecognizeText(text) {
		if e.Start < 0 || e.End > len(text) || e.Start >= e.End {
			t.Errorf("bad span %+v", e)
		}
	}
}

func TestRecognizeEmpty(t *testing.T) {
	r := NewRecognizer()
	if ents := r.RecognizeText(""); len(ents) != 0 {
		t.Errorf("empty: %v", ents)
	}
}

func TestMissRateDropsSomeEntities(t *testing.T) {
	text := "IBM acquired Daksh. Microsoft bought Intel shares. Oracle sued Google. Cisco hired Dell executives. Accenture met Infosys and Wipro in Bangalore and London and Tokyo."
	full := NewRecognizer().RecognizeText(text)
	lossy := NewRecognizer(WithMissRate(0.5, 42)).RecognizeText(text)
	if len(lossy) >= len(full) {
		t.Fatalf("miss rate dropped nothing: full=%d lossy=%d", len(full), len(lossy))
	}
	if len(lossy) == 0 {
		t.Fatal("miss rate dropped everything")
	}
	// Determinism: same config, same output.
	again := NewRecognizer(WithMissRate(0.5, 42)).RecognizeText(text)
	if len(again) != len(lossy) {
		t.Fatalf("miss injection not deterministic: %d vs %d", len(again), len(lossy))
	}
}

// Property: entities never overlap and always lie within token bounds.
func TestRecognizePropertyNonOverlap(t *testing.T) {
	r := NewRecognizer()
	f := func(s string) bool {
		toks := textproc.Tokenize(s)
		prev := -1
		for _, e := range r.Recognize(toks) {
			if e.TokenStart < 0 || e.TokenEnd > len(toks) || e.TokenStart >= e.TokenEnd {
				return false
			}
			if e.TokenStart < prev {
				return false
			}
			prev = e.TokenEnd
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecognize(b *testing.B) {
	b.ReportAllocs()
	r := NewRecognizer()
	toks := textproc.Tokenize("IBM paid $160 million for Daksh on January 12, 2004 and Mr. Smith, the new CEO, praised the 10% growth in New York.")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Recognize(toks)
	}
}

// TestAppendEntitiesSlicesSpacedText checks that a warmed AppendEntities
// into a reused buffer allocates nothing when every multi-token entity
// sits in the text one space apart: each entity's text is a slice of
// the source, not a joined copy.
func TestAppendEntitiesSlicesSpacedText(t *testing.T) {
	r := NewRecognizer()
	const text = "Acme Holdings Ltd named Mary Smith chief executive officer in New York"
	tokens := textproc.Tokenize(text)
	lowered := textproc.Lowered(tokens)
	buf := r.AppendEntities(nil, text, tokens, lowered)
	if len(buf) < 3 {
		t.Fatalf("found %d entities in %q, want at least 3: %+v", len(buf), text, buf)
	}
	for _, e := range buf {
		if e.Text != text[e.Start:e.End] {
			t.Errorf("entity text %q, want the source span %q", e.Text, text[e.Start:e.End])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = r.AppendEntities(buf[:0], text, tokens, lowered)
	}); allocs != 0 {
		t.Errorf("a warmed AppendEntities allocated %v times, want 0", allocs)
	}
}
