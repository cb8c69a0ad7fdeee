// Package postag is the part-of-speech tag set and what the tagger
// (internal/pos) knows about one word out of context: the closed-class
// and business-news lexicon, suffix guesses for unknown words, and the
// verb facts its contextual repair pass asks about. Each is a pure
// function of the word, so textproc's word table computes them once
// per distinct word and the tagger reads them from there; the package
// sits below textproc for that reason.
package postag

// Tag is a lower-case Penn-style part-of-speech tag, matching the
// convention in the paper's figures ("all named entity category names are
// capitalized while the part of speech category names are expressed in
// small letters").
type Tag string

// Fine-grained tags produced by the tagger.
const (
	NN  Tag = "nn"  // common noun, singular
	NNS Tag = "nns" // common noun, plural
	NP  Tag = "np"  // proper noun
	VB  Tag = "vb"  // verb, base form
	VBD Tag = "vbd" // verb, past tense
	VBG Tag = "vbg" // verb, gerund/present participle
	VBN Tag = "vbn" // verb, past participle
	VBZ Tag = "vbz" // verb, 3rd person singular present
	VBP Tag = "vbp" // verb, non-3rd person present
	MD  Tag = "md"  // modal
	JJ  Tag = "jj"  // adjective
	JJR Tag = "jjr" // adjective, comparative
	JJS Tag = "jjs" // adjective, superlative
	RB  Tag = "rb"  // adverb
	IN  Tag = "in"  // preposition / subordinating conjunction
	DT  Tag = "dt"  // determiner
	CC  Tag = "cc"  // coordinating conjunction
	CD  Tag = "cd"  // cardinal number
	PRP Tag = "prp" // personal pronoun
	PPS Tag = "pp$" // possessive pronoun
	TO  Tag = "to"  // "to"
	EX  Tag = "ex"  // existential "there"
	WDT Tag = "wdt" // wh-determiner
	WP  Tag = "wp"  // wh-pronoun
	WRB Tag = "wrb" // wh-adverb
	POS Tag = "pos" // possessive marker 's
	UH  Tag = "uh"  // interjection
	Sym Tag = "sym" // symbol
	Pct Tag = "pct" // punctuation
)

// Coarse maps a fine-grained tag to the coarse category used by the
// paper's feature-abstraction analysis (Figures 3 and 4 plot vb, rb, nn,
// np, jj, in, dt, cd, ...).
func (t Tag) Coarse() Tag {
	switch t {
	case NN, NNS:
		return NN
	case VB, VBD, VBG, VBN, VBZ, VBP, MD:
		return VB
	case JJ, JJR, JJS:
		return JJ
	case PRP, PPS:
		return PRP
	default:
		return t
	}
}

// IsContent reports whether the tag belongs to an open (content-word)
// class. Per the paper's RIG observations, content classes keep their
// instance-valued representation; closed classes are uninformative either
// way.
func (t Tag) IsContent() bool {
	switch t.Coarse() {
	case NN, NP, VB, JJ, RB:
		return true
	}
	return false
}
