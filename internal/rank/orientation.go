package rank

import (
	"sort"

	"etap/internal/textproc"
)

// Lexicon maps phrases (1-3 words, lower-case) to semantic-orientation
// weights. Positive weights indicate favourable business sense, negative
// weights unfavourable; larger magnitude means stronger sense ("Phrases
// that convey a stronger sense, e.g., 'sharp decline', 'worst losses' are
// weighted more than other phrases, e.g., 'loss' and 'profit'").
type Lexicon map[string]float64

// DefaultRevenueLexicon is the manually constructed lexicon for the
// revenue growth sales driver, mirroring the paper's examples.
func DefaultRevenueLexicon() Lexicon {
	return Lexicon{
		// strong positive phrases
		"significant growth": 3, "solid quarter": 3, "record results": 3,
		"strong performance": 3, "robust expansion": 3, "impressive gains": 3,
		"stellar quarter": 3, "healthy margins": 2.5, "record revenue": 3,
		// weak positive words
		"profit": 1, "growth": 1, "gain": 1, "increase": 1, "beat": 1,
		"rose": 1, "climbed": 1, "jumped": 1.5, "expanded": 1,
		// weak negative words
		"loss": -1, "decline": -1, "drop": -1, "fell": -1, "decrease": -1,
		"shortfall": -1.5, "slid": -1, "missed": -1,
		// strong negative phrases
		"severe losses": -3, "sharp decline": -3, "worst losses": -3.5,
		"steep drop": -3, "disappointing results": -2.5, "weak demand": -2,
		"heavy shortfall": -3, "painful contraction": -3,
	}
}

// maxPhraseLen is the longest phrase (in words) the scorer considers.
const maxPhraseLen = 3

// Score computes the semantic orientation of a snippet: the sum of the
// weights of matched phrases, longest match first (so "sharp decline"
// consumes both words and the weak "decline" entry does not double
// count). Matching is on lower-cased words with stemmed fallback for
// single words. The words go into pooled scratch, and each candidate
// phrase is built in a stack buffer rather than joined.
func (lx Lexicon) Score(text string) float64 {
	sc := textproc.GetScratch()
	defer sc.Release()
	for _, t := range sc.Tokenize(text) {
		if t.Kind == textproc.KindWord {
			sc.Words = append(sc.Words, textproc.Lower(t.Text))
		}
	}
	words := sc.Words
	var buf [64]byte
	score := 0.0
	for i := 0; i < len(words); {
		matched := 0
		for n := maxPhraseLen; n >= 1; n-- {
			if i+n > len(words) {
				continue
			}
			phrase := append(buf[:0], words[i]...)
			for _, w := range words[i+1 : i+n] {
				phrase = append(append(phrase, ' '), w...)
			}
			if w, ok := lx[string(phrase)]; ok {
				score += w
				matched = n
				break
			}
			if n == 1 {
				if w, ok := lx[textproc.Stem(words[i])]; ok {
					score += w
					matched = 1
				}
			}
		}
		if matched == 0 {
			matched = 1
		}
		i += matched
	}
	return score
}

// Apply sets every event's Orientation from the lexicon.
func (lx Lexicon) Apply(events []Event) []Event {
	out := make([]Event, len(events))
	for i, e := range events {
		e.Orientation = lx.Score(e.Text)
		out[i] = e
	}
	return out
}

// Entries returns the lexicon's phrases sorted by descending weight, for
// display and tests.
func (lx Lexicon) Entries() []string {
	out := make([]string, 0, len(lx))
	for p := range lx {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if lx[out[i]] != lx[out[j]] {
			return lx[out[i]] > lx[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
