package textproc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// kernelSeeds are inputs the differential fuzz targets start from, on
// top of the committed corpora under testdata/fuzz: abbreviations,
// initials, numbers, quotes, paragraph breaks and invalid UTF-8.
var kernelSeeds = []string{
	"",
	"Acme Corp announced a 10% revenue growth to $5.2 billion in Q4. Mr. Smith agreed.",
	"Mr. J. Smith met Dr. Y. They spoke.",
	"U.S. firms vs. U.K. ones, e.g. Acme Inc. and Beta Ltd. grew.",
	"He said \"We won.\" Then (quietly) left! Did he? Yes…",
	"Para one.\n\nPara two.\r\n\r\nPara three.\n Not a break.",
	"3.5 billion, 1,200.50 and 4.5.6 are numbers. 7 ended it.",
	"don't stop-the presses & AT&T's vice-president",
	"a\xe2\x82\xac\xac.b \xff. C",
	"é. É. İntl. Ünïcödé tèxt — em-dash. ‘Quoted’ “twice”.",
	"\x00\x01 control\v\f chars nbsp line.",
	asciiBytes(),
}

// asciiBytes is every byte below utf8.RuneSelf, in order, each after a
// letter and after a digit, so the tokenizer's and the splitter's byte
// classes all meet the rules that branch on them.
func asciiBytes() string {
	var b strings.Builder
	for c := 0; c < utf8.RuneSelf; c++ {
		b.WriteString("a")
		b.WriteByte(byte(c))
		b.WriteString(" 1")
		b.WriteByte(byte(c))
		b.WriteString("2 ")
	}
	return b.String()
}

// TestRuneClassesMatchUnicode checks the tokenizer's class tests, a
// table load below utf8.RuneSelf, against the unicode predicates they
// stand for on every rune up to U+FFFF and a sample above it.
func TestRuneClassesMatchUnicode(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if r > 0xffff && r%97 != 0 {
			continue
		}
		for _, c := range []struct {
			name     string
			got, ref bool
		}{
			{"isSpace", isSpace(r), unicode.IsSpace(r)},
			{"isLetter", isLetter(r), unicode.IsLetter(r)},
			{"isDigit", isDigit(r), unicode.IsDigit(r)},
			{"isLetterOrDigit", isLetterOrDigit(r), unicode.IsLetter(r) || unicode.IsDigit(r)},
			{"isUpper", isUpper(r), unicode.IsUpper(r)},
			{"isSymbol", isSymbol(r), isSymbolRune(r)},
		} {
			if c.got != c.ref {
				t.Fatalf("%s(%U) = %v, want %v", c.name, r, c.got, c.ref)
			}
		}
	}
}

func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, s := range kernelSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := refTokenize(s)
		if got := Tokenize(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q)\n got  %+v\n want %+v", s, got, want)
		}
		// Appending to a reused buffer keeps what it held and adds
		// exactly Tokenize's tokens.
		prefix := []Token{{Text: "p", Kind: KindWord, Start: 0, End: 1}}
		if got := AppendTokens(prefix, s); !reflect.DeepEqual(got, append(prefix[:1:1], want...)) {
			t.Fatalf("AppendTokens(%+v, %q)\n got  %+v\n want %+v", prefix, s, got, want)
		}
		// A scratch that held a longer text tokenizes exactly as the
		// allocating entry points do, and looks up each token's entry.
		sc := GetScratch()
		defer sc.Release()
		sc.Tokenize(strings.Repeat("Acme named a new CEO. ", 8))
		sc.Lookup()
		if got := sc.Tokenize(s); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("Scratch.Tokenize(%q)\n got  %+v\n want %+v", s, got, want)
		}
		entries := sc.Lookup()
		if len(entries) != len(want) {
			t.Fatalf("Scratch.Lookup over %q: %d entries for %d tokens", s, len(entries), len(want))
		}
		for i, e := range entries {
			if e.word != want[i].Text || e.Lower != strings.ToLower(want[i].Text) {
				t.Fatalf("Scratch.Lookup over %q: entry %d is %+v for token %q", s, i, e, want[i].Text)
			}
		}
	})
}

// TestScratchReleaseClears checks that a released Scratch holds no
// string in any slot of its buffers, so a pooled one keeps no
// document reachable: not even past the length of its last use.
func TestScratchReleaseClears(t *testing.T) {
	sc := new(Scratch)
	sc.Tokenize("Acme Corp named a new CEO on Friday, and revenue rose 10%.")
	sc.Lookup()
	sc.Tokenize("Short text.")
	sc.Lookup()
	sc.Words = append(sc.Words, "appended")
	sc.Release()
	for i, tok := range sc.Tokens[:cap(sc.Tokens)] {
		if tok != (Token{}) {
			t.Errorf("Tokens[%d] = %+v after Release", i, tok)
		}
	}
	for i, e := range sc.Entries[:cap(sc.Entries)] {
		if e != nil {
			t.Errorf("Entries[%d] = %+v after Release", i, e)
		}
	}
	for i, w := range sc.Words[:cap(sc.Words)] {
		if w != "" {
			t.Errorf("Words[%d] = %q after Release", i, w)
		}
	}
}

func FuzzSplitSentencesMatchesReference(f *testing.F) {
	for _, s := range kernelSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := SplitSentences(s), refSplitSentences(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("SplitSentences(%q)\n got  %+v\n want %+v", s, got, want)
		}
	})
}

func FuzzStemMatchesReference(f *testing.F) {
	for _, s := range []string{
		"", "a", "at", "sky", "ties", "agreed", "running", "ACQUIRED",
		"relational", "conditional", "generalization", "hopefulness",
		"electricity", "adjustment", "controlling", "rate", "İntl", "café",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Stem(s), refStem(s); got != want {
			t.Fatalf("Stem(%q) = %q, want %q", s, got, want)
		}
	})
}

// TestKernelsMatchReferenceRandom is the seeded differential test plain
// `go test` runs: random strings built from the pieces the sentence and
// token rules branch on, and random words built from Porter suffixes,
// each compared against the reference kernels.
func TestKernelsMatchReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{
		"a", "Z", "é", "É", "İ", "ß", "ǅ", "Ω", "x1", "1", "٣", "0", "42",
		".", ".", "!", "?", ",", ":", "'", "-", "&", "\"", "”", "’", "“", "‘",
		"(", ")", "]", "$", "€", "%", "#", "^", "…", "—",
		" ", " ", " ", "\n", "\n\n", "\r", "\t", " ", "\v",
		"Mr", "dr", "Inc", "U.S", "e.g", "approx", "J", "vs", "Q4",
		"\xff", "\xe2", "\x82", "\xac", "\xe2\x82", "\xf0\x9f", "\xed\xa0\x80", "\xc0\xaf",
	}
	var b strings.Builder
	for n := 0; n < 20000; n++ {
		b.Reset()
		for k := rng.Intn(24); k >= 0; k-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		s := b.String()
		if got, want := Tokenize(s), refTokenize(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q)\n got  %+v\n want %+v", s, got, want)
		}
		if got, want := SplitSentences(s), refSplitSentences(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("SplitSentences(%q)\n got  %+v\n want %+v", s, got, want)
		}
	}

	suffixes := []string{
		"", "s", "ss", "sses", "ies", "eed", "ed", "ing", "at", "bl", "iz", "y",
		"ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli",
		"eli", "ousli", "ization", "ation", "ator", "alism", "iveness",
		"fulness", "ousness", "aliti", "iviti", "biliti", "icate", "ative",
		"alize", "iciti", "ical", "ful", "ness", "al", "ance", "ence", "er",
		"ic", "able", "ible", "ant", "ement", "ment", "ent", "sion", "tion",
		"ou", "ism", "ate", "iti", "ous", "ive", "ize", "e", "ll", "le",
	}
	const letters = "abcdefghijklmnopqrstuvwxyzaeiouyy"
	for n := 0; n < 200000; n++ {
		b.Reset()
		for k := rng.Intn(7); k >= 0; k-- {
			b.WriteByte(letters[rng.Intn(len(letters))])
		}
		b.WriteString(suffixes[rng.Intn(len(suffixes))])
		if rng.Intn(4) == 0 {
			b.WriteString(suffixes[rng.Intn(len(suffixes))])
		}
		w := b.String()
		switch rng.Intn(8) {
		case 0:
			w = strings.ToUpper(w[:1]) + w[1:]
		case 1:
			w = strings.ToUpper(w)
		case 2:
			w += pieces[rng.Intn(len(pieces))]
		}
		if got, want := Stem(w), refStem(w); got != want {
			t.Fatalf("Stem(%q) = %q, want %q", w, got, want)
		}
	}
}
