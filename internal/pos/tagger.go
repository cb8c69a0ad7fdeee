package pos

import (
	"strings"
	"unicode"

	"etap/internal/textproc"
)

// TaggedToken pairs a surface token with its part-of-speech tag.
type TaggedToken struct {
	Token textproc.Token
	Tag   Tag
}

// TagTokens assigns a part-of-speech tag to every token. The algorithm
// follows the QTag recipe: (1) lexicon lookup, (2) morphological suffix
// guess for unknown words, (3) a left-to-right contextual repair pass.
func TagTokens(tokens []textproc.Token) []TaggedToken {
	// Inputs up to the buffers' size keep their lowered forms and tags
	// on the stack, so the wrapper allocates only what it returns and
	// the lower-cased strings.
	var lbuf [64]string
	var tbuf [64]Tag
	lowered, tags := lbuf[:0], tbuf[:0]
	if len(tokens) > len(lbuf) {
		lowered, tags = make([]string, 0, len(tokens)), make([]Tag, 0, len(tokens))
	}
	for _, t := range tokens {
		lowered = append(lowered, textproc.Lower(t.Text))
	}
	tags = tags[:len(tokens)]
	tagInto(tokens, lowered, tags)
	out := make([]TaggedToken, len(tokens))
	for i, tok := range tokens {
		out[i] = TaggedToken{Token: tok, Tag: tags[i]}
	}
	return out
}

// Tags is TagTokens for a caller that has already lower-cased every
// token, as textproc.Lowered does: lowered[i] must be
// strings.ToLower(tokens[i].Text). It returns only the tags, in token
// order, so the annotator neither copies tokens nor lower-cases them
// again.
func Tags(tokens []textproc.Token, lowered []string) []Tag {
	tags := make([]Tag, len(tokens))
	tagInto(tokens, lowered, tags)
	return tags
}

// tagInto writes the tag of tokens[i] to tags[i].
func tagInto(tokens []textproc.Token, lowered []string, tags []Tag) {
	for i, tok := range tokens {
		tags[i] = initialTag(tok, lowered[i], i == 0)
	}
	repair(lowered, tags)
}

// TagText tokenizes and tags text in one call.
func TagText(text string) []TaggedToken {
	return TagTokens(textproc.Tokenize(text))
}

// initialTag assigns the context-free tag of a single token; lower is
// its lower-cased text.
func initialTag(tok textproc.Token, lower string, sentenceInitial bool) Tag {
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

	if t, ok := lexicon[lower]; ok {
		// Capitalized lexicon word mid-sentence is still a proper noun
		// candidate only when the lexicon calls it a noun; keep closed
		// classes as tagged.
		if !sentenceInitial && isCapitalized(tok.Text) && (t == TagNN || t == TagNNS) {
			return TagNP
		}
		return t
	}

	// Unknown capitalized word (not sentence-initial): proper noun.
	if isCapitalized(tok.Text) && !sentenceInitial {
		return TagNP
	}
	// Sentence-initial unknown capitalized word: decide by suffix; if the
	// suffix guess says noun, prefer proper noun when fully unknown.
	t := suffixGuess(lower)
	if sentenceInitial && isCapitalized(tok.Text) && t == TagNN && looksLikeName(tok.Text) {
		return TagNP
	}
	return t
}

// suffixGuess infers a tag for an unknown lower-case word from its
// morphology, longest suffix first.
func suffixGuess(w string) Tag {
	n := len(w)
	switch {
	case n > 6 && strings.HasSuffix(w, "ically"),
		n > 4 && strings.HasSuffix(w, "ly"):
		return TagRB
	case n > 5 && strings.HasSuffix(w, "ization"),
		n > 4 && strings.HasSuffix(w, "tion"),
		n > 4 && strings.HasSuffix(w, "sion"),
		n > 4 && strings.HasSuffix(w, "ment"),
		n > 4 && strings.HasSuffix(w, "ness"),
		n > 4 && strings.HasSuffix(w, "ship"),
		n > 3 && strings.HasSuffix(w, "ity"),
		n > 3 && strings.HasSuffix(w, "ism"),
		n > 3 && strings.HasSuffix(w, "ist"),
		n > 3 && strings.HasSuffix(w, "dom"),
		n > 3 && strings.HasSuffix(w, "ance"),
		n > 3 && strings.HasSuffix(w, "ence"):
		return TagNN
	case n > 4 && strings.HasSuffix(w, "able"),
		n > 4 && strings.HasSuffix(w, "ible"),
		n > 3 && strings.HasSuffix(w, "ful"),
		n > 3 && strings.HasSuffix(w, "ous"),
		n > 3 && strings.HasSuffix(w, "ive"),
		n > 3 && strings.HasSuffix(w, "ial"),
		n > 2 && strings.HasSuffix(w, "al"),
		n > 2 && strings.HasSuffix(w, "ic"):
		return TagJJ
	case n > 3 && strings.HasSuffix(w, "ing"):
		return TagVBG
	case n > 2 && strings.HasSuffix(w, "ed"):
		return TagVBD
	case n > 3 && strings.HasSuffix(w, "ize"),
		n > 3 && strings.HasSuffix(w, "ise"),
		n > 3 && strings.HasSuffix(w, "ify"),
		n > 3 && strings.HasSuffix(w, "ate"):
		return TagVB
	case n > 2 && strings.HasSuffix(w, "er"):
		return TagNN // agentive noun more common than comparative in news
	case n > 3 && strings.HasSuffix(w, "est"):
		return TagJJS
	case n > 1 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss"):
		// Plural noun or 3sg verb; default plural noun, repaired later.
		return TagNNS
	default:
		return TagNN
	}
}

// repair applies contextual repair rules left to right, resolving the
// systematic ambiguities the context-free pass leaves behind. lowered
// holds the tokens' lower-cased texts; tags is edited in place.
func repair(lowered []string, tags []Tag) {
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
			if base, ok := strip3sg(lowered[i]); ok && lexicon[base] == TagVB {
				tags[i] = TagVBZ
			}

		// "to" + base-form verb: infinitive.
		case prev == TagTO:
			if lexicon[lowered[i]] == TagVB {
				tags[i] = TagVB
			} else if cur == TagNN && isKnownVerbForm(lowered[i]) {
				tags[i] = TagVB
			}

		// Modal + anything verb-ish → base verb.
		case prev == TagMD && (cur == TagNN || cur == TagNNS):
			if isKnownVerbForm(lowered[i]) {
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
		case cur == TagVBD && i > 0 && isPerfectAux(lowered[i-1]):
			tags[i] = TagVBN

		// is/are/was/were + vbd → passive participle.
		case cur == TagVBD && i > 0 && isBeAux(lowered[i-1]):
			tags[i] = TagVBN
		}
	}
}

func strip3sg(w string) (string, bool) {
	switch {
	case strings.HasSuffix(w, "ies") && len(w) > 3:
		return w[:len(w)-3] + "y", true
	case strings.HasSuffix(w, "es") && len(w) > 2:
		if base := w[:len(w)-2]; lexicon[base] == TagVB {
			return base, true
		}
		return w[:len(w)-1], true // "closes" -> "close"
	case strings.HasSuffix(w, "s") && len(w) > 1:
		return w[:len(w)-1], true
	}
	return "", false
}

// isKnownVerbForm reports whether w is an inflection of a lexicon verb.
func isKnownVerbForm(w string) bool {
	if lexicon[w] == TagVB {
		return true
	}
	if base, ok := strip3sg(w); ok && lexicon[base] == TagVB {
		return true
	}
	for _, suf := range []string{"ed", "ing"} {
		if strings.HasSuffix(w, suf) {
			base := w[:len(w)-len(suf)]
			if lexicon[base] == TagVB || lexicon[base+"e"] == TagVB {
				return true
			}
		}
	}
	return false
}

func isPerfectAux(w string) bool {
	return w == "has" || w == "have" || w == "had" || w == "having"
}

func isBeAux(w string) bool {
	switch w {
	case "is", "are", "was", "were", "be", "been", "being", "am":
		return true
	}
	return false
}

func isCapitalized(s string) bool {
	for _, r := range s {
		return unicode.IsUpper(r)
	}
	return false
}

// looksLikeName reports whether a capitalized word has name-like shape
// (no internal digits, reasonable length).
func looksLikeName(s string) bool {
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
