package postag

import (
	"strings"
	"unicode"
)

// Facts is what the tagger knows of one word token before its context
// repair pass: the tag the word takes at the start of a text and
// elsewhere, and the verb facts the repair rules test.
type Facts struct {
	Start, Inside Tag
	Verb          Verb
}

// Verb is a set of facts about a lower-cased word's verb forms.
type Verb uint8

// The verb facts of a word.
const (
	// Base: the lexicon tags the word vb.
	Base Verb = 1 << iota
	// ThirdPerson: the word is the -s form of a lexicon base verb
	// ("acquires").
	ThirdPerson
	// Form: the word is a lexicon base verb or its -s, -ed or -ing
	// form.
	Form
	// PerfectAux: a form of "have".
	PerfectAux
	// BeAux: a form of "be".
	BeAux
)

// Of returns the facts of word, whose lower-cased form is lower. Its
// tags are those the tagger's context-free pass gives a word token:
// the lexicon's tag, except that a capitalized lexicon noun inside a
// text is a proper noun; for a word the lexicon lacks, the suffix
// guess, except that a capitalized word is a proper noun inside a text
// and, when the guess is a noun and the word is shaped like a name, at
// its start too.
func Of(word, lower string) Facts {
	t, known := lexicon[lower]
	f := Facts{Verb: verbFacts(lower, t)}
	capital := isCapitalized(word)
	if known {
		f.Start, f.Inside = t, t
		if capital && (t == NN || t == NNS) {
			f.Inside = NP
		}
		return f
	}
	t = SuffixGuess(lower)
	f.Start, f.Inside = t, t
	if capital {
		f.Inside = NP
		if t == NN && looksLikeName(word) {
			f.Start = NP
		}
	}
	return f
}

// Lookup returns the lexicon's tag for a lower-cased word.
func Lookup(lower string) (Tag, bool) {
	t, ok := lexicon[lower]
	return t, ok
}

// SuffixGuess infers a tag for an unknown lower-case word from its
// morphology, longest suffix first.
func SuffixGuess(w string) Tag {
	n := len(w)
	switch {
	case n > 6 && strings.HasSuffix(w, "ically"),
		n > 4 && strings.HasSuffix(w, "ly"):
		return RB
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
		return NN
	case n > 4 && strings.HasSuffix(w, "able"),
		n > 4 && strings.HasSuffix(w, "ible"),
		n > 3 && strings.HasSuffix(w, "ful"),
		n > 3 && strings.HasSuffix(w, "ous"),
		n > 3 && strings.HasSuffix(w, "ive"),
		n > 3 && strings.HasSuffix(w, "ial"),
		n > 2 && strings.HasSuffix(w, "al"),
		n > 2 && strings.HasSuffix(w, "ic"):
		return JJ
	case n > 3 && strings.HasSuffix(w, "ing"):
		return VBG
	case n > 2 && strings.HasSuffix(w, "ed"):
		return VBD
	case n > 3 && strings.HasSuffix(w, "ize"),
		n > 3 && strings.HasSuffix(w, "ise"),
		n > 3 && strings.HasSuffix(w, "ify"),
		n > 3 && strings.HasSuffix(w, "ate"):
		return VB
	case n > 2 && strings.HasSuffix(w, "er"):
		return NN // agentive noun more common than comparative in news
	case n > 3 && strings.HasSuffix(w, "est"):
		return JJS
	case n > 1 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss"):
		// Plural noun or 3sg verb; default plural noun, repaired later.
		return NNS
	default:
		return NN
	}
}

// verbFacts computes the verb facts of a lower-cased word w, whose
// lexicon tag is tag ("" when the lexicon lacks it).
func verbFacts(w string, tag Tag) Verb {
	var v Verb
	if tag == VB {
		v |= Base | Form
	}
	if base, ok := strip3sg(w); ok && lexicon[base] == VB {
		v |= ThirdPerson | Form
	}
	if v&Form == 0 && inflectsVerb(w) {
		v |= Form
	}
	switch w {
	case "has", "have", "had", "having":
		v |= PerfectAux
	case "is", "are", "was", "were", "be", "been", "being", "am":
		v |= BeAux
	}
	return v
}

func strip3sg(w string) (string, bool) {
	switch {
	case strings.HasSuffix(w, "ies") && len(w) > 3:
		return w[:len(w)-3] + "y", true
	case strings.HasSuffix(w, "es") && len(w) > 2:
		if base := w[:len(w)-2]; lexicon[base] == VB {
			return base, true
		}
		return w[:len(w)-1], true // "closes" -> "close"
	case strings.HasSuffix(w, "s") && len(w) > 1:
		return w[:len(w)-1], true
	}
	return "", false
}

// inflectsVerb reports whether w is the -ed or -ing form of a lexicon
// verb.
func inflectsVerb(w string) bool {
	for _, suf := range []string{"ed", "ing"} {
		if strings.HasSuffix(w, suf) {
			base := w[:len(w)-len(suf)]
			if lexicon[base] == VB || lexicon[base+"e"] == VB {
				return true
			}
		}
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
