package textproc

import (
	"strings"
	"testing"
	"testing/quick"
)

func sentenceTexts(ss []Sentence) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Text
	}
	return out
}

func TestSplitSentencesBasic(t *testing.T) {
	got := sentenceTexts(SplitSentences("Acme acquired Widget. The deal closed Friday."))
	want := []string{"Acme acquired Widget.", "The deal closed Friday."}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestSplitSentencesAbbreviation(t *testing.T) {
	got := SplitSentences("Mr. Andersen was the CEO of XYZ Inc. from 1980 to 1985.")
	if len(got) != 1 {
		t.Fatalf("abbreviations split the sentence: %q", sentenceTexts(got))
	}
}

func TestSplitSentencesCorporateSuffix(t *testing.T) {
	got := SplitSentences("Widget Corp. posted record profits. Shares rose sharply.")
	if len(got) != 2 {
		t.Fatalf("got %d sentences %q, want 2", len(got), sentenceTexts(got))
	}
	if !strings.HasPrefix(got[1].Text, "Shares") {
		t.Errorf("second sentence = %q", got[1].Text)
	}
}

func TestSplitSentencesDecimalNumbers(t *testing.T) {
	got := SplitSentences("Revenue grew 3.5 percent. Margins held steady.")
	if len(got) != 2 {
		t.Fatalf("decimal split the sentence: %q", sentenceTexts(got))
	}
}

func TestSplitSentencesInitials(t *testing.T) {
	got := SplitSentences("J. K. Smith joined the board. She was previously at Acme.")
	if len(got) != 2 {
		t.Fatalf("got %d sentences: %q", len(got), sentenceTexts(got))
	}
	if !strings.HasPrefix(got[0].Text, "J. K. Smith") {
		t.Errorf("first = %q", got[0].Text)
	}
}

func TestSplitSentencesQuestionExclamation(t *testing.T) {
	got := SplitSentences("Will the merger close? Analysts think so! The market agreed.")
	if len(got) != 3 {
		t.Fatalf("got %d sentences: %q", len(got), sentenceTexts(got))
	}
}

func TestSplitSentencesParagraphBreak(t *testing.T) {
	got := SplitSentences("Headline without period\n\nBody sentence follows here.")
	if len(got) != 2 {
		t.Fatalf("got %d sentences: %q", len(got), sentenceTexts(got))
	}
	if got[0].Text != "Headline without period" {
		t.Errorf("first = %q", got[0].Text)
	}
}

func TestSplitSentencesLowercaseContinuation(t *testing.T) {
	// Terminator followed by a lowercase letter should not split:
	// chunker demands an upper-case/digit/quote continuation.
	got := SplitSentences("The web site example.com announced results. Shares rose.")
	if len(got) != 2 {
		t.Fatalf("got %d sentences: %q", len(got), sentenceTexts(got))
	}
}

func TestSplitSentencesOffsets(t *testing.T) {
	src := "Acme acquired Widget. The deal closed Friday."
	for _, s := range SplitSentences(src) {
		if src[s.Start:s.End] != s.Text {
			t.Errorf("span [%d,%d) = %q, want %q", s.Start, s.End, src[s.Start:s.End], s.Text)
		}
	}
}

func TestSplitSentencesEmpty(t *testing.T) {
	if got := SplitSentences(""); len(got) != 0 {
		t.Errorf("empty: got %d", len(got))
	}
	if got := SplitSentences("   \n\n  "); len(got) != 0 {
		t.Errorf("whitespace: got %d", len(got))
	}
}

func TestSplitSentencesTrailingNoTerminator(t *testing.T) {
	got := SplitSentences("First sentence ends. second part has no terminator")
	// "second" is lowercase, so no split; the text is one sentence per rules?
	// No: period followed by lowercase does not split, so single sentence.
	if len(got) != 1 {
		t.Fatalf("got %d sentences: %q", len(got), sentenceTexts(got))
	}
}

// Property: sentence spans are disjoint, ordered, within bounds, and the
// concatenation of spans covers every non-whitespace byte of the input.
func TestSplitSentencesPropertySpans(t *testing.T) {
	f := func(s string) bool {
		prev := 0
		for _, sent := range SplitSentences(s) {
			if sent.Start < prev || sent.End < sent.Start || sent.End > len(s) {
				return false
			}
			if strings.TrimSpace(s[sent.Start:sent.End]) != sent.Text {
				return false
			}
			prev = sent.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSplitSentences(b *testing.B) {
	b.ReportAllocs()
	src := strings.Repeat("Acme Corp announced record profits. Mr. Smith, the new CEO, was pleased. Revenue grew 3.5 percent in Q4. ", 30)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SplitSentences(src)
	}
}
