package textproc

// Stem reduces an English word to its stem using the classic Porter (1980)
// algorithm. The input is lower-cased first; words of length <= 2, and
// words with any byte outside a-z after lower-casing, come back
// lower-cased but otherwise unchanged.
//
// Each distinct word is stemmed once, through the word table (see
// Normalize), and the result is the table's copy: it is not a prefix
// of the argument, so keeping a stem does not keep the text the word
// was sliced from reachable. A repeated word's stem allocates nothing.
func Stem(word string) string { return Lookup(word).Stem }

// porterStem is Stem's algorithm over an already lower-cased word.
//
// The steps edit a stack buffer in place. No step lengthens the word
// (the "e" step 1b may append replaces a longer suffix it removed), so
// the stem is never longer than lower and is usually a prefix of it;
// porterStem then returns that prefix and allocates nothing.
func porterStem(lower string) string {
	if len(lower) <= 2 {
		return lower
	}
	for i := 0; i < len(lower); i++ {
		if c := lower[i]; c < 'a' || c > 'z' {
			return lower // non-alphabetic: leave untouched
		}
	}
	var buf [maxLexWord]byte
	w := append(buf[:0], lower...)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	if prefix := lower[:len(w)]; prefix == string(w) {
		return prefix
	}
	return string(w)
}

// isCons reports whether w[i] is a consonant in Porter's sense.
func isCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(w, i-1)
	default:
		return true
	}
}

// measure computes m, the number of VC sequences in w[:len(w)].
func measure(w []byte) int {
	n := len(w)
	m := 0
	i := 0
	// Skip initial consonants.
	for i < n && isCons(w, i) {
		i++
	}
	for i < n {
		// vowel run
		for i < n && !isCons(w, i) {
			i++
		}
		if i >= n {
			break
		}
		// consonant run
		for i < n && isCons(w, i) {
			i++
		}
		m++
	}
	return m
}

func containsVowel(w []byte) bool {
	for i := range w {
		if !isCons(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether w ends with a double consonant.
func endsDoubleCons(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isCons(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y.
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(w []byte, s string) bool {
	return len(w) >= len(s) && string(w[len(w)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r if the stem before s has
// measure > minM. Returns the new word and whether a rule fired. No
// replacement is longer than its suffix, so the edit happens in place.
func replaceSuffix(w []byte, s, r string, minM int) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if measure(stem) <= minM {
		return w, true // suffix matched; rule condition failed — stop scanning
	}
	return append(stem, r...), true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		stem := w[:len(w)-3]
		if measure(stem) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	fired := false
	if hasSuffix(w, "ed") && containsVowel(w[:len(w)-2]) {
		w = w[:len(w)-2]
		fired = true
	} else if hasSuffix(w, "ing") && containsVowel(w[:len(w)-3]) {
		w = w[:len(w)-3]
		fired = true
	}
	if !fired {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleCons(w) && !hasSuffix(w, "l") && !hasSuffix(w, "s") && !hasSuffix(w, "z"):
		return w[:len(w)-1]
	case measure(w) == 1 && endsCVC(w):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && containsVowel(w[:len(w)-1]) {
		w[len(w)-1] = 'i'
	}
	return w
}

var step2Rules = []struct{ s, r string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	last := w[len(w)-1]
	for _, rule := range step2Rules {
		if rule.s[len(rule.s)-1] == last && hasSuffix(w, rule.s) {
			out, _ := replaceSuffix(w, rule.s, rule.r, 0)
			return out
		}
	}
	return w
}

var step3Rules = []struct{ s, r string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	last := w[len(w)-1]
	for _, rule := range step3Rules {
		if rule.s[len(rule.s)-1] == last && hasSuffix(w, rule.s) {
			out, _ := replaceSuffix(w, rule.s, rule.r, 0)
			return out
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	last := w[len(w)-1]
	for _, s := range step4Suffixes {
		if s[len(s)-1] != last || !hasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if measure(stem) > 1 {
			return stem
		}
		return w
	}
	// (m>1 and (*S or *T)) ION ->
	if hasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if len(stem) > 0 && measure(stem) > 1 &&
			(stem[len(stem)-1] == 's' || stem[len(stem)-1] == 't') {
			return stem
		}
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w) > 1 && endsDoubleCons(w) && hasSuffix(w, "l") {
		return w[:len(w)-1]
	}
	return w
}
