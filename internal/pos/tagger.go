package pos

import (
	"slices"

	"etap/internal/postag"
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
// The first two are a word's own facts, read from its word-table entry.
func TagTokens(tokens []textproc.Token) []TaggedToken {
	// Inputs up to the buffers' size keep their entries and tags on the
	// stack, so the wrapper allocates only what it returns.
	var wbuf [64]*textproc.Word
	var tbuf [64]Tag
	words, tags := wbuf[:0], tbuf[:0]
	if len(tokens) > len(wbuf) {
		words, tags = make([]*textproc.Word, 0, len(tokens)), make([]Tag, 0, len(tokens))
	}
	for _, t := range tokens {
		words = append(words, textproc.Lookup(t.Text))
	}
	tags = tags[:len(tokens)]
	tagInto(tokens, words, tags)
	out := make([]TaggedToken, len(tokens))
	for i, tok := range tokens {
		out[i] = TaggedToken{Token: tok, Tag: tags[i]}
	}
	return out
}

// AppendTags appends the tag of every token, in token order, to dst
// and returns the extended slice, so a caller that reuses one buffer
// tags without allocating. words[i] must be the word-table entry of
// tokens[i].Text (textproc.Lookup); the annotator shares its entries
// with the recognizer.
func AppendTags(dst []Tag, tokens []textproc.Token, words []*textproc.Word) []Tag {
	n := len(dst)
	dst = slices.Grow(dst, len(tokens))[:n+len(tokens)]
	tagInto(tokens, words, dst[n:])
	return dst
}

// tagInto writes the tag of tokens[i] to tags[i].
func tagInto(tokens []textproc.Token, words []*textproc.Word, tags []Tag) {
	for i, tok := range tokens {
		tags[i] = initialTag(tok, words[i], i == 0)
	}
	repair(words, tags)
}

// TagText tokenizes and tags text in one call.
func TagText(text string) []TaggedToken {
	sc := textproc.GetScratch()
	defer sc.Release()
	return TagTokens(sc.Tokenize(text))
}

// initialTag assigns the context-free tag of a single token: by its
// kind for a number, symbol or punctuation mark, else the tag its entry
// w gives a word at the start of a text or elsewhere.
func initialTag(tok textproc.Token, w *textproc.Word, sentenceInitial bool) Tag {
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
	if sentenceInitial {
		return w.Tags.Start
	}
	return w.Tags.Inside
}

// repair applies contextual repair rules left to right, resolving the
// systematic ambiguities the context-free pass leaves behind. words
// holds the tokens' entries, whose verb facts the rules test; tags is
// edited in place.
func repair(words []*textproc.Word, tags []Tag) {
	for i := range tags {
		cur := tags[i]
		var prev, next Tag // "" when absent: no rule tests for it
		if i > 0 {
			prev = tags[i-1]
		}
		if i+1 < len(tags) {
			next = tags[i+1]
		}
		verb := words[i].Tags.Verb

		switch {
		// Lexicon verb inflections: derive vbz/vbd/vbg for known base verbs.
		case cur == TagNNS && (prev == TagNP || prev == TagNN || prev == TagPRP || prev == TagNNS):
			// "company acquires", "it grows": 3sg verb after subject — but
			// only when the word's stem is a known verb.
			if verb&postag.ThirdPerson != 0 {
				tags[i] = TagVBZ
			}

		// "to" + base-form verb: infinitive.
		case prev == TagTO:
			if verb&postag.Base != 0 || cur == TagNN && verb&postag.Form != 0 {
				tags[i] = TagVB
			}

		// Modal + anything verb-ish → base verb.
		case prev == TagMD && (cur == TagNN || cur == TagNNS):
			if verb&postag.Form != 0 {
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
		case cur == TagVBD && i > 0 && words[i-1].Tags.Verb&postag.PerfectAux != 0:
			tags[i] = TagVBN

		// is/are/was/were + vbd → passive participle.
		case cur == TagVBD && i > 0 && words[i-1].Tags.Verb&postag.BeAux != 0:
			tags[i] = TagVBN
		}
	}
}
