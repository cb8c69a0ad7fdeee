package textproc

import (
	"testing"
	"testing/quick"
)

// Reference pairs from Porter's original paper and vocabulary.
func TestStemKnownPairs(t *testing.T) {
	cases := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		"triplicate":     "triplic",
		"formative":      "form",
		"formalize":      "formal",
		"electriciti":    "electr",
		"electrical":     "electr",
		"hopeful":        "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"gyroscopic":     "gyroscop",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"homologou":      "homolog",
		"communism":      "commun",
		"activate":       "activ",
		"angulariti":     "angular",
		"homologous":     "homolog",
		"effective":      "effect",
		"bowdlerize":     "bowdler",
		"probate":        "probat",
		"rate":           "rate",
		"cease":          "ceas",
		"controll":       "control",
		"roll":           "roll",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemBusinessVocabulary(t *testing.T) {
	// The stems that matter for trigger-event classification: different
	// inflections of the same driver verb must collapse together.
	groups := [][]string{
		{"acquired", "acquires", "acquire"},
		{"merged", "merges", "merge"},
		{"appointed", "appoints", "appoint"},
		{"announced", "announces", "announce"},
		{"growing", "grows"},
	}
	for _, g := range groups {
		first := Stem(g[0])
		for _, w := range g[1:] {
			if got := Stem(w); got != first {
				t.Errorf("Stem(%q) = %q, want %q (same as %q)", w, got, first, g[0])
			}
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"a", "is", "be", "go"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemNonAlphabetic(t *testing.T) {
	for _, w := range []string{"3.5", "q4", "don't", "2004"} {
		got := Stem(w)
		if got == "" {
			t.Errorf("Stem(%q) = empty", w)
		}
	}
}

func TestStemLowercases(t *testing.T) {
	if Stem("Acquired") != Stem("acquired") {
		t.Error("stemming is case-sensitive")
	}
}

// Property: stemming is idempotent for plain lowercase words — stemming a
// stem returns the stem — for the suffix families we rely on.
func TestStemIdempotentOnVocabulary(t *testing.T) {
	words := []string{
		"acquisitions", "acquired", "management", "revenues", "growing",
		"appointed", "executives", "companies", "announcement", "profits",
		"declining", "operations", "strategic", "integration", "quarterly",
	}
	for _, w := range words {
		s1 := Stem(w)
		s2 := Stem(s1)
		if s1 != s2 {
			t.Errorf("Stem(Stem(%q)) = %q, Stem(%q) = %q — not idempotent", w, s2, w, s1)
		}
	}
}

// Property: stems are never longer (in runes) than the input, except for
// the 'e' step1b can re-append.
func TestStemPropertyNeverLonger(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 40 {
			s = s[:40]
		}
		return len([]rune(Stem(s))) <= len([]rune(s))+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasure(t *testing.T) {
	cases := map[string]int{
		"tr": 0, "ee": 0, "tree": 0, "y": 0, "by": 0,
		"trouble": 1, "oats": 1, "trees": 1, "ivy": 1,
		"troubles": 2, "private": 2, "oaten": 2, "orrery": 2,
	}
	for in, want := range cases {
		if got := measure([]byte(in)); got != want {
			t.Errorf("measure(%q) = %d, want %d", in, got, want)
		}
	}
}

// BenchmarkStem measures a stem found in the word table (hit) and one
// computed and stored (miss).
func BenchmarkStem(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		words := []string{"acquisitions", "Management", "revenues", "growing", "appointed"}
		for i := 0; i < b.N; i++ {
			Stem(words[i%len(words)])
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		words := missWords(32 << lexSetBits)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Stem(words[i%len(words)])
		}
	})
}
