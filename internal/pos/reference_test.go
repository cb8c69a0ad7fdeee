package pos

// The tagger as it was before it read each token's word-table entry,
// kept apart from a ref prefix on every name as the reference oracle
// TagTokens, AppendTags and TagText must match: it lower-cases every
// token itself and probes the lexicon and the suffix rules per token,
// and the lexicon again in the repair pass. Keep it simple and slow;
// do not optimize it.

import (
	"strings"
	"unicode"

	"etap/internal/postag"
	"etap/internal/textproc"
)

// refTagTokens is TagTokens as it was.
func refTagTokens(tokens []textproc.Token) []TaggedToken {
	lowered := make([]string, len(tokens))
	tags := make([]Tag, len(tokens))
	for i, tok := range tokens {
		lowered[i] = strings.ToLower(tok.Text)
		tags[i] = refInitialTag(tok, lowered[i], i == 0)
	}
	refRepair(lowered, tags)
	out := make([]TaggedToken, len(tokens))
	for i, tok := range tokens {
		out[i] = TaggedToken{Token: tok, Tag: tags[i]}
	}
	return out
}

// refLexicon is the lexicon's tag for w, "" when it has none.
func refLexicon(w string) Tag {
	t, _ := postag.Lookup(w)
	return t
}

// refInitialTag assigns the context-free tag of a single token; lower is
// its lower-cased text.
func refInitialTag(tok textproc.Token, lower string, sentenceInitial bool) Tag {
	switch tok.Kind {
	case textproc.KindNumber:
		return TagCD
	case textproc.KindSymbol:
		return TagSym
	case textproc.KindPunct:
		if tok.Text == "'" {
			return TagPOS
		}
		return TagPct
	}

	if t, ok := postag.Lookup(lower); ok {
		// Capitalized lexicon word mid-sentence is still a proper noun
		// candidate only when the lexicon calls it a noun; keep closed
		// classes as tagged.
		if !sentenceInitial && refIsCapitalized(tok.Text) && (t == TagNN || t == TagNNS) {
			return TagNP
		}
		return t
	}

	// Unknown capitalized word (not sentence-initial): proper noun.
	if refIsCapitalized(tok.Text) && !sentenceInitial {
		return TagNP
	}
	// Sentence-initial unknown capitalized word: decide by suffix; if the
	// suffix guess says noun, prefer proper noun when fully unknown.
	t := postag.SuffixGuess(lower)
	if sentenceInitial && refIsCapitalized(tok.Text) && t == TagNN && refLooksLikeName(tok.Text) {
		return TagNP
	}
	return t
}

// refRepair applies contextual refRepair rules left to right, resolving the
// systematic ambiguities the context-free pass leaves behind. lowered
// holds the tokens' lower-cased texts; tags is edited in place.
func refRepair(lowered []string, tags []Tag) {
	for i := range tags {
		cur := tags[i]
		var prev, next Tag // "" when absent: no rule tests for it
		if i > 0 {
			prev = tags[i-1]
		}
		if i+1 < len(tags) {
			next = tags[i+1]
		}

		switch {
		// Lexicon verb inflections: derive vbz/vbd/vbg for known base verbs.
		case cur == TagNNS && (prev == TagNP || prev == TagNN || prev == TagPRP || prev == TagNNS):
			// "company acquires", "it grows": 3sg verb after subject — but
			// only when the word's stem is a known verb.
			if base, ok := refStrip3sg(lowered[i]); ok && refLexicon(base) == TagVB {
				tags[i] = TagVBZ
			}

		// "to" + base-form verb: infinitive.
		case prev == TagTO:
			if refLexicon(lowered[i]) == TagVB {
				tags[i] = TagVB
			} else if cur == TagNN && refIsKnownVerbForm(lowered[i]) {
				tags[i] = TagVB
			}

		// Modal + anything verb-ish → base verb.
		case prev == TagMD && (cur == TagNN || cur == TagNNS):
			if refIsKnownVerbForm(lowered[i]) {
				tags[i] = TagVB
			}

		// Determiner/adjective + vbd/vbg → adjective or noun use:
		// "the combined company", "a leading provider".
		case (cur == TagVBD || cur == TagVBG) &&
			(prev == TagDT || prev == TagJJ || prev == TagPPS):
			if next == TagNN || next == TagNNS || next == TagNP {
				tags[i] = TagJJ // participial modifier
			} else {
				tags[i] = TagNN // nominalized ("the filing")
			}

		// have/has/had + vbd → past participle.
		case cur == TagVBD && i > 0 && refIsPerfectAux(lowered[i-1]):
			tags[i] = TagVBN

		// is/are/was/were + vbd → passive participle.
		case cur == TagVBD && i > 0 && refIsBeAux(lowered[i-1]):
			tags[i] = TagVBN
		}
	}
}

func refStrip3sg(w string) (string, bool) {
	switch {
	case strings.HasSuffix(w, "ies") && len(w) > 3:
		return w[:len(w)-3] + "y", true
	case strings.HasSuffix(w, "es") && len(w) > 2:
		if base := w[:len(w)-2]; refLexicon(base) == TagVB {
			return base, true
		}
		return w[:len(w)-1], true // "closes" -> "close"
	case strings.HasSuffix(w, "s") && len(w) > 1:
		return w[:len(w)-1], true
	}
	return "", false
}

// refIsKnownVerbForm reports whether w is an inflection of a lexicon verb.
func refIsKnownVerbForm(w string) bool {
	if refLexicon(w) == TagVB {
		return true
	}
	if base, ok := refStrip3sg(w); ok && refLexicon(base) == TagVB {
		return true
	}
	for _, suf := range []string{"ed", "ing"} {
		if strings.HasSuffix(w, suf) {
			base := w[:len(w)-len(suf)]
			if refLexicon(base) == TagVB || refLexicon(base+"e") == TagVB {
				return true
			}
		}
	}
	return false
}

func refIsPerfectAux(w string) bool {
	return w == "has" || w == "have" || w == "had" || w == "having"
}

func refIsBeAux(w string) bool {
	switch w {
	case "is", "are", "was", "were", "be", "been", "being", "am":
		return true
	}
	return false
}

func refIsCapitalized(s string) bool {
	for _, r := range s {
		return unicode.IsUpper(r)
	}
	return false
}

// refLooksLikeName reports whether a capitalized word has name-like shape
// (no internal digits, reasonable length).
func refLooksLikeName(s string) bool {
	if len(s) < 2 {
		return false
	}
	for _, r := range s {
		if unicode.IsDigit(r) {
			return false
		}
	}
	return true
}
