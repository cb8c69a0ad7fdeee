package textproc

// stopwords is the standard English stop-word list used for feature
// selection pre-processing (Section 3.2.1). Closed-class function words
// only; content words are never stopped because the RIG analysis needs
// verbs, nouns, adjectives and adverbs as instance-valued features.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true,
	"and": true, "or": true, "but": true, "nor": true, "so": true,
	"yet": true, "both": true, "either": true, "neither": true,
	"of": true, "in": true, "on": true, "at": true, "to": true,
	"for": true, "from": true, "by": true, "with": true, "about": true,
	"against": true, "between": true, "into": true, "through": true,
	"during": true, "before": true, "after": true, "above": true,
	"below": true, "under": true, "over": true, "again": true,
	"further": true, "then": true, "once": true, "here": true,
	"there": true, "out": true, "off": true, "up": true, "down": true,
	"is": true, "am": true, "are": true, "was": true, "were": true,
	"be": true, "been": true, "being": true,
	"have": true, "has": true, "had": true, "having": true,
	"do": true, "does": true, "did": true, "doing": true,
	"will": true, "would": true, "shall": true, "should": true,
	"can": true, "could": true, "may": true, "might": true, "must": true,
	"i": true, "me": true, "my": true, "myself": true,
	"we": true, "our": true, "ours": true, "ourselves": true,
	"you": true, "your": true, "yours": true, "yourself": true,
	"he": true, "him": true, "his": true, "himself": true,
	"she": true, "her": true, "hers": true, "herself": true,
	"it": true, "its": true, "itself": true,
	"they": true, "them": true, "their": true, "theirs": true,
	"themselves": true,
	"this":       true, "that": true, "these": true, "those": true,
	"what": true, "which": true, "who": true, "whom": true, "whose": true,
	"when": true, "where": true, "why": true, "how": true,
	"all": true, "any": true, "each": true, "few": true, "more": true,
	"most": true, "other": true, "some": true, "such": true, "only": true,
	"own": true, "same": true, "than": true, "too": true, "very": true,
	"not": true, "no": true, "just": true, "now": true,
	"as": true, "if": true, "because": true, "while": true, "until": true,
	"although": true, "though": true, "since": true, "unless": true,
	"whether": true, "also": true,
	"s": true, "t": true, "d": true, "ll": true, "m": true, "re": true, "ve": true,
}

// IsStopword reports whether the lower-cased form of w is a stop word.
func IsStopword(w string) bool { return Lookup(w).Stop }

// RemoveStopwords filters stop words out of a token slice in place order,
// returning a new slice of the surviving words.
func RemoveStopwords(words []string) []string {
	out := make([]string, 0, len(words))
	for _, w := range words {
		if !IsStopword(w) {
			out = append(out, w)
		}
	}
	return out
}

// NormalizeWords applies the paper's standard preprocessing to a word
// list: lower-casing, stop-word elimination and Porter stemming.
func NormalizeWords(words []string) []string {
	out := make([]string, 0, len(words))
	for _, w := range words {
		if e := Lookup(w); !e.Stop {
			out = append(out, e.Stem)
		}
	}
	return out
}
