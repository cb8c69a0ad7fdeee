package textproc

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeSimpleSentence(t *testing.T) {
	toks := Tokenize("Acme Corp acquired Widget Inc.")
	got := texts(toks)
	want := []string{"Acme", "Corp", "acquired", "Widget", "Inc", "."}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeNumberWithCommasAndDecimal(t *testing.T) {
	toks := Tokenize("revenue of 1,200.50 dollars")
	var nums []string
	for _, tok := range toks {
		if tok.Kind == KindNumber {
			nums = append(nums, tok.Text)
		}
	}
	if len(nums) != 1 || nums[0] != "1,200.50" {
		t.Fatalf("numbers = %v, want [1,200.50]", nums)
	}
}

func TestTokenizeCurrencyAndPercent(t *testing.T) {
	toks := Tokenize("$5 billion, up 10%")
	var syms []string
	for _, tok := range toks {
		if tok.Kind == KindSymbol {
			syms = append(syms, tok.Text)
		}
	}
	if len(syms) != 2 || syms[0] != "$" || syms[1] != "%" {
		t.Fatalf("symbols = %v, want [$ %%]", syms)
	}
}

func TestTokenizeHyphenAndApostrophe(t *testing.T) {
	toks := Tokenize("third-quarter results didn't disappoint")
	got := texts(toks)
	want := []string{"third-quarter", "results", "didn't", "disappoint"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeOffsetsRoundTrip(t *testing.T) {
	src := "IBM acquired Daksh in 2004 for $160 million."
	for _, tok := range Tokenize(src) {
		if got := src[tok.Start:tok.End]; got != tok.Text {
			t.Errorf("span [%d,%d) = %q, want %q", tok.Start, tok.End, got, tok.Text)
		}
	}
}

func TestTokenizeUnicodeOffsets(t *testing.T) {
	src := "Köln GmbH raised €5 million"
	for _, tok := range Tokenize(src) {
		if got := src[tok.Start:tok.End]; got != tok.Text {
			t.Errorf("span [%d,%d) = %q, want %q", tok.Start, tok.End, got, tok.Text)
		}
	}
}

func TestTokenizeEmptyAndWhitespace(t *testing.T) {
	if toks := Tokenize(""); len(toks) != 0 {
		t.Errorf("empty input: got %d tokens", len(toks))
	}
	if toks := Tokenize("   \n\t  "); len(toks) != 0 {
		t.Errorf("whitespace input: got %d tokens", len(toks))
	}
}

func TestTokenizeKinds(t *testing.T) {
	toks := Tokenize("Profit rose 10% to $2,000!")
	wantKinds := []TokenKind{KindWord, KindWord, KindNumber, KindSymbol,
		KindWord, KindSymbol, KindNumber, KindPunct}
	gotKinds := kinds(toks)
	if len(gotKinds) != len(wantKinds) {
		t.Fatalf("tokens %v: got %d kinds, want %d", texts(toks), len(gotKinds), len(wantKinds))
	}
	for i := range wantKinds {
		if gotKinds[i] != wantKinds[i] {
			t.Errorf("kind %d (%q): got %d, want %d", i, toks[i].Text, gotKinds[i], wantKinds[i])
		}
	}
}

func TestWordsLowercasesAndFilters(t *testing.T) {
	got := Words("IBM Acquired Daksh, 2004!")
	want := []string{"ibm", "acquired", "daksh"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// Property: token spans never overlap, are sorted, and each non-space rune
// of the input is covered by exactly one token.
func TestTokenizePropertySpans(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		prev := 0
		for _, tok := range toks {
			if tok.Start < prev || tok.End <= tok.Start || tok.End > len(s) {
				return false
			}
			if s[tok.Start:tok.End] != tok.Text {
				return false
			}
			// gap between prev and tok.Start must be all whitespace
			for _, r := range s[prev:tok.Start] {
				if !unicode.IsSpace(r) {
					return false
				}
			}
			prev = tok.End
		}
		for _, r := range s[prev:] {
			if !unicode.IsSpace(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: tokenization is idempotent on word tokens — re-tokenizing a
// word token yields that single token back.
func TestTokenizePropertyWordStability(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok.Kind != KindWord {
				continue
			}
			again := Tokenize(tok.Text)
			if len(again) != 1 || again[0].Text != tok.Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	b.ReportAllocs()
	src := strings.Repeat("Acme Corp announced a 10% revenue growth to $5.2 billion in Q4. ", 50)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Tokenize(src)
	}
}
