// Package pos implements a rule-based part-of-speech tagger in the spirit
// of QTag, the tagger ETAP uses for tokens that are not covered by a named
// entity category (Section 3.2.1). It combines a closed-class lexicon,
// suffix/morphology guesses and a contextual repair pass. The tag set
// and what the tagger knows of a word on its own live in
// internal/postag, below textproc, so that textproc's word table can
// hold each word's tags.
package pos

import "etap/internal/postag"

// Tag is a lower-case Penn-style part-of-speech tag, matching the
// convention in the paper's figures ("all named entity category names are
// capitalized while the part of speech category names are expressed in
// small letters").
type Tag = postag.Tag

// Fine-grained tags produced by the tagger.
const (
	TagNN  = postag.NN  // common noun, singular
	TagNNS = postag.NNS // common noun, plural
	TagNP  = postag.NP  // proper noun
	TagVB  = postag.VB  // verb, base form
	TagVBD = postag.VBD // verb, past tense
	TagVBG = postag.VBG // verb, gerund/present participle
	TagVBN = postag.VBN // verb, past participle
	TagVBZ = postag.VBZ // verb, 3rd person singular present
	TagVBP = postag.VBP // verb, non-3rd person present
	TagMD  = postag.MD  // modal
	TagJJ  = postag.JJ  // adjective
	TagJJR = postag.JJR // adjective, comparative
	TagJJS = postag.JJS // adjective, superlative
	TagRB  = postag.RB  // adverb
	TagIN  = postag.IN  // preposition / subordinating conjunction
	TagDT  = postag.DT  // determiner
	TagCC  = postag.CC  // coordinating conjunction
	TagCD  = postag.CD  // cardinal number
	TagPRP = postag.PRP // personal pronoun
	TagPPS = postag.PPS // possessive pronoun
	TagTO  = postag.TO  // "to"
	TagEX  = postag.EX  // existential "there"
	TagWDT = postag.WDT // wh-determiner
	TagWP  = postag.WP  // wh-pronoun
	TagWRB = postag.WRB // wh-adverb
	TagPOS = postag.POS // possessive marker 's
	TagUH  = postag.UH  // interjection
	TagSym = postag.Sym // symbol
	TagPct = postag.Pct // punctuation
)
