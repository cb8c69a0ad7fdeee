package postag

// lexicon maps lower-cased word forms to their most likely tag. It covers
// the closed classes exhaustively and the open-class vocabulary that
// matters for business news. Words absent from the lexicon fall through
// to the suffix rules of SuffixGuess.
var lexicon = map[string]Tag{
	// determiners
	"the": DT, "a": DT, "an": DT, "this": DT, "that": DT,
	"these": DT, "those": DT, "each": DT, "every": DT,
	"some": DT, "any": DT, "no": DT, "all": DT, "both": DT,
	"another": DT, "either": DT, "neither": DT,

	// conjunctions
	"and": CC, "or": CC, "but": CC, "nor": CC, "yet": CC,
	"plus": CC,

	// prepositions / subordinators
	"of": IN, "in": IN, "on": IN, "at": IN, "by": IN,
	"for": IN, "with": IN, "from": IN, "into": IN,
	"about": IN, "after": IN, "before": IN, "during": IN,
	"between": IN, "through": IN, "over": IN, "under": IN,
	"against": IN, "among": IN, "within": IN, "without": IN,
	"since": IN, "until": IN, "despite": IN, "amid": IN,
	"as": IN, "if": IN, "because": IN, "while": IN,
	"although": IN, "though": IN, "whether": IN, "per": IN,
	"via": IN, "unless": IN, "toward": IN, "towards": IN,

	// pronouns
	"i": PRP, "you": PRP, "he": PRP, "she": PRP, "it": PRP,
	"we": PRP, "they": PRP, "me": PRP, "him": PRP,
	"them": PRP, "us": PRP, "himself": PRP, "herself": PRP,
	"itself": PRP, "themselves": PRP, "who": WP, "whom": WP,
	"my": PPS, "your": PPS, "his": PPS, "her": PPS,
	"its": PPS, "our": PPS, "their": PPS,
	"which": WDT, "whose": WDT, "what": WP,
	"when": WRB, "where": WRB, "why": WRB, "how": WRB,
	"there": EX,

	// modals and auxiliaries
	"will": MD, "would": MD, "shall": MD, "should": MD,
	"can": MD, "could": MD, "may": MD, "might": MD,
	"must": MD,
	"is":   VBZ, "are": VBP, "was": VBD, "were": VBD,
	"be": VB, "been": VBN, "being": VBG, "am": VBP,
	"has": VBZ, "have": VBP, "had": VBD, "having": VBG,
	"does": VBZ, "do": VBP, "did": VBD, "doing": VBG,
	"to": TO, "not": RB, "n't": RB,

	// high-frequency adverbs
	"also": RB, "now": RB, "then": RB, "here": RB,
	"very": RB, "too": RB, "just": RB, "only": RB,
	"again": RB, "soon": RB, "already": RB, "still": RB,
	"recently": RB, "sharply": RB, "significantly": RB,
	"strongly": RB, "steadily": RB, "roughly": RB,
	"approximately": RB, "nearly": RB,
	"up": RB, "down": RB, "well": RB, "even": RB,
	"more": RB, "most": RB, "less": RB, "least": RB,
	"earlier": RB, "later": RB, "today": RB, "yesterday": RB,
	"tomorrow": RB, "ago": RB, "once": RB, "abroad": RB,
	"respectively": RB, "meanwhile": RB, "however": RB,

	// business-news verbs (base forms; inflections derived by rules)
	"acquire": VB, "merge": VB, "buy": VB, "purchase": VB,
	"sell": VB, "announce": VB, "report": VB, "appoint": VB,
	"name": VB, "hire": VB, "join": VB, "resign": VB,
	"retire": VB, "replace": VB, "succeed": VB, "promote": VB,
	"grow": VB, "rise": VB, "fall": VB, "decline": VB,
	"increase": VB, "decrease": VB, "post": VB, "record": VB,
	"expand": VB, "plan": VB, "expect": VB, "say": VB,
	"agree": VB, "complete": VB, "close": VB, "approve": VB,
	"lead": VB, "serve": VB, "step": VB, "take": VB,
	"make": VB, "pay": VB, "raise": VB, "cut": VB,
	"launch": VB, "open": VB, "sign": VB, "win": VB,
	"beat": VB, "miss": VB, "exceed": VB, "deliver": VB,

	// irregular past forms
	"bought": VBD, "sold": VBD, "grew": VBD, "rose": VBD,
	"fell": VBD, "said": VBD, "took": VBD, "made": VBD,
	"paid": VBD, "led": VBD, "won": VBD, "left": VBD,
	"became": VBD, "began": VBD, "held": VBD, "met": VBD,
	"saw": VBD, "came": VBD, "went": VBD, "stepped": VBD,
	"beaten": VBN, "grown": VBN, "risen": VBN, "fallen": VBN,
	"taken": VBN, "given": VBN, "known": VBN, "shown": VBN,

	// business-news nouns
	"company": NN, "firm": NN, "merger": NN, "acquisition": NN,
	"deal": NN, "transaction": NN, "agreement": NN,
	"revenue": NN, "profit": NN, "loss": NN, "growth": NN,
	"quarter": NN, "year": NN, "month": NN, "week": NN,
	"market": NN, "share": NN, "stock": NN, "board": NN,
	"management": NN, "executive": NN, "officer": NN,
	"chief": NN, "president": NN, "chairman": NN,
	"director": NN, "manager": NN, "founder": NN,
	"sales": NNS, "earnings": NNS, "results": NNS,
	"analysts": NNS, "investors": NNS, "shares": NNS,
	"percent": NN, "percentage": NN, "billion": CD,
	"million": CD, "thousand": CD, "hundred": CD,
	"industry": NN, "sector": NN, "business": NN,
	"customer": NN, "product": NN, "service": NN,
	"strategy": NN, "integration": NN, "expansion": NN,
	"leadership": NN, "appointment": NN, "succession": NN,
	"tenure": NN, "role": NN, "position": NN, "career": NN,
}

func init() {
	// common adjectives
	for _, w := range []string{
		"new", "former", "current", "interim", "strong", "weak",
		"high", "low", "large", "small", "big", "major", "minor",
		"financial", "corporate", "strategic", "global", "annual",
		"quarterly", "fiscal", "net", "gross", "solid", "robust",
		"sharp", "severe", "significant", "substantial", "modest",
		"double-digit", "year-over-year", "worst", "best", "good",
		"bad", "senior", "junior", "executive_jj", "joint", "combined",
		"previous", "next", "last", "first", "second", "third",
		"fourth", "recent", "early", "late", "top", "key", "several",
		"many", "few", "other", "same", "such", "own", "due",
		"worldwide", "overall", "long-term", "short-term",
	} {
		if w == "executive_jj" {
			continue
		}
		lexicon[w] = JJ
	}
	lexicon["better"] = JJR
	lexicon["worse"] = JJR
	lexicon["higher"] = JJR
	lexicon["lower"] = JJR
	lexicon["larger"] = JJR
	lexicon["smaller"] = JJR
	lexicon["biggest"] = JJS
	lexicon["largest"] = JJS
	lexicon["highest"] = JJS
	lexicon["lowest"] = JJS

	// number words
	for _, w := range []string{
		"one", "two", "three", "four", "five", "six", "seven",
		"eight", "nine", "ten", "eleven", "twelve", "twenty",
		"thirty", "forty", "fifty", "sixty", "seventy", "eighty",
		"ninety", "dozen",
	} {
		lexicon[w] = CD
	}
}
