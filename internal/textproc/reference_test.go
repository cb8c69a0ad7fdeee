package textproc

// The original kernels, kept verbatim apart from a ref prefix on every
// name, are the reference oracles the allocation-lean Tokenize,
// SplitSentences and Stem must match byte for byte: same tokens, same
// sentences, same offsets and stems, including on invalid UTF-8. The
// differential tests and fuzz targets in differential_test.go compare
// against them. Keep them simple and slow; do not optimize them.

import (
	"strings"
	"unicode"
)

// refTokenize is Tokenize over a decoded rune slice.
func refTokenize(text string) []Token {
	tokens := make([]Token, 0, len(text)/5)
	// byteAt[i] is the byte offset of runes[i]; byteAt[len] == len(text).
	// Offsets come from ranging over the string, which stays correct
	// even for invalid UTF-8 (each bad byte decodes to U+FFFD but
	// advances by its true source width).
	runes := make([]rune, 0, len(text))
	byteAt := make([]int, 0, len(text)+1)
	for i, r := range text {
		byteAt = append(byteAt, i)
		runes = append(runes, r)
	}
	byteAt = append(byteAt, len(text))

	i := 0
	n := len(runes)
	for i < n {
		r := runes[i]
		// Token text is sliced from the source by byte offsets, so
		// invalid bytes round-trip exactly.
		src := func(from, to int) string { return text[byteAt[from]:byteAt[to]] }
		switch {
		case unicode.IsSpace(r):
			i++
		case unicode.IsLetter(r):
			j := i + 1
			for j < n {
				rj := runes[j]
				if unicode.IsLetter(rj) || unicode.IsDigit(rj) {
					j++
					continue
				}
				// Keep internal apostrophes/hyphens/periods when
				// followed by a letter: "don't", "vice-president",
				// "U.S.A" (trailing period handled by sentence rules).
				if (rj == '\'' || rj == '-' || rj == '.' || rj == '&') &&
					j+1 < n && unicode.IsLetter(runes[j+1]) {
					j += 2
					continue
				}
				break
			}
			tokens = append(tokens, Token{
				Text:  src(i, j),
				Kind:  KindWord,
				Start: byteAt[i],
				End:   byteAt[j],
			})
			i = j
		case unicode.IsDigit(r):
			j := i + 1
			for j < n {
				rj := runes[j]
				if unicode.IsDigit(rj) {
					j++
					continue
				}
				if (rj == ',' || rj == '.') && j+1 < n && unicode.IsDigit(runes[j+1]) {
					j += 2
					continue
				}
				break
			}
			tokens = append(tokens, Token{
				Text:  src(i, j),
				Kind:  KindNumber,
				Start: byteAt[i],
				End:   byteAt[j],
			})
			i = j
		case isSymbolRune(r):
			tokens = append(tokens, Token{
				Text:  src(i, i+1),
				Kind:  KindSymbol,
				Start: byteAt[i],
				End:   byteAt[i+1],
			})
			i++
		default:
			tokens = append(tokens, Token{
				Text:  src(i, i+1),
				Kind:  KindPunct,
				Start: byteAt[i],
				End:   byteAt[i+1],
			})
			i++
		}
	}
	return tokens
}

// refSplitSentences is SplitSentences over a decoded rune slice.
func refSplitSentences(text string) []Sentence {
	var sentences []Sentence
	// Offsets come from ranging over the string so invalid UTF-8 keeps
	// correct byte positions (see Tokenize).
	runes := make([]rune, 0, len(text))
	byteAt := make([]int, 0, len(text)+1)
	for i, r := range text {
		byteAt = append(byteAt, i)
		runes = append(runes, r)
	}
	byteAt = append(byteAt, len(text))
	n := len(runes)

	flush := func(startRune, endRune int) {
		if startRune >= endRune {
			return
		}
		raw := text[byteAt[startRune]:byteAt[endRune]]
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" {
			return
		}
		lead := len(raw) - len(strings.TrimLeft(raw, " \t\r\n"))
		trail := len(raw) - len(strings.TrimRight(raw, " \t\r\n"))
		sentences = append(sentences, Sentence{
			Text:  trimmed,
			Start: byteAt[startRune] + lead,
			End:   byteAt[endRune] - trail,
		})
	}

	start := 0
	i := 0
	for i < n {
		r := runes[i]

		// Paragraph break: two or more consecutive newlines.
		if r == '\n' {
			j := i
			nl := 0
			for j < n && (runes[j] == '\n' || runes[j] == '\r' || runes[j] == ' ' || runes[j] == '\t') {
				if runes[j] == '\n' {
					nl++
				}
				j++
			}
			if nl >= 2 {
				flush(start, i)
				start = j
				i = j
				continue
			}
			i++
			continue
		}

		if r != '.' && r != '!' && r != '?' {
			i++
			continue
		}

		if r == '.' {
			// Period inside a number: "3.5 billion".
			if i > 0 && i+1 < n && unicode.IsDigit(runes[i-1]) && unicode.IsDigit(runes[i+1]) {
				i++
				continue
			}
			// Abbreviation or initial before the period.
			word := refPrecedingWord(runes, i)
			lw := strings.ToLower(word)
			if abbreviations[lw] || refIsInitial(word) {
				i++
				continue
			}
		}

		// Absorb any run of terminators and closing quotes/brackets.
		j := i + 1
		for j < n && (runes[j] == '.' || runes[j] == '!' || runes[j] == '?' ||
			runes[j] == '"' || runes[j] == '\'' || runes[j] == ')' || runes[j] == ']' ||
			runes[j] == '”' || runes[j] == '’') {
			j++
		}

		// Must be followed by whitespace (or end of text).
		if j < n && !unicode.IsSpace(runes[j]) {
			i = j
			continue
		}
		// Skip whitespace and check the next visible rune.
		k := j
		for k < n && unicode.IsSpace(runes[k]) {
			k++
		}
		if k < n {
			next := runes[k]
			if !unicode.IsUpper(next) && !unicode.IsDigit(next) &&
				next != '"' && next != '“' && next != '(' && next != '‘' && next != '\'' {
				i = j
				continue
			}
		}

		flush(start, j)
		start = k
		i = k
	}
	flush(start, n)
	return sentences
}

// refPrecedingWord returns the maximal letter-or-period run that ends
// immediately before runes[end] (a period position).
func refPrecedingWord(runes []rune, end int) string {
	j := end
	for j > 0 {
		r := runes[j-1]
		if unicode.IsLetter(r) || (r == '.' && j-1 > 0 && unicode.IsLetter(runes[j-2])) {
			j--
			continue
		}
		break
	}
	return string(runes[j:end])
}

// refIsInitial reports whether word looks like a person's initial ("J",
// "J.K") — a single capital letter or dotted capitals.
func refIsInitial(word string) bool {
	if word == "" {
		return false
	}
	letters := 0
	for _, r := range word {
		if r == '.' {
			continue
		}
		if !unicode.IsUpper(r) {
			return false
		}
		letters++
	}
	return letters >= 1 && letters <= 2 && len([]rune(word)) <= 3
}

// refStem is Stem over a freshly allocated byte slice.
func refStem(word string) string {
	w := []byte(strings.ToLower(word))
	if len(w) <= 2 {
		return string(w)
	}
	for _, b := range w {
		if b < 'a' || b > 'z' {
			return string(w) // non-alphabetic: leave untouched
		}
	}
	w = refStep1a(w)
	w = refStep1b(w)
	w = refStep1c(w)
	w = refStep2(w)
	w = refStep3(w)
	w = refStep4(w)
	w = refStep5a(w)
	w = refStep5b(w)
	return string(w)
}

// refIsCons reports whether w[i] is a consonant in Porter's sense.
func refIsCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !refIsCons(w, i-1)
	default:
		return true
	}
}

// refMeasure computes m, the number of VC sequences in w[:len(w)].
func refMeasure(w []byte) int {
	n := len(w)
	m := 0
	i := 0
	// Skip initial consonants.
	for i < n && refIsCons(w, i) {
		i++
	}
	for i < n {
		// vowel run
		for i < n && !refIsCons(w, i) {
			i++
		}
		if i >= n {
			break
		}
		// consonant run
		for i < n && refIsCons(w, i) {
			i++
		}
		m++
	}
	return m
}

func refContainsVowel(w []byte) bool {
	for i := range w {
		if !refIsCons(w, i) {
			return true
		}
	}
	return false
}

// refEndsDoubleCons reports whether w ends with a double consonant.
func refEndsDoubleCons(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && refIsCons(w, n-1)
}

// refEndsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y.
func refEndsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !refIsCons(w, n-3) || refIsCons(w, n-2) || !refIsCons(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func refHasSuffix(w []byte, s string) bool {
	return len(w) >= len(s) && string(w[len(w)-len(s):]) == s
}

// refReplaceSuffix replaces suffix s with r if the stem before s has
// measure > minM. Returns the new word and whether a rule fired.
func refReplaceSuffix(w []byte, s, r string, minM int) ([]byte, bool) {
	if !refHasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if refMeasure(stem) <= minM {
		return w, true // suffix matched; rule condition failed — stop scanning
	}
	out := make([]byte, 0, len(stem)+len(r))
	out = append(out, stem...)
	out = append(out, r...)
	return out, true
}

func refStep1a(w []byte) []byte {
	switch {
	case refHasSuffix(w, "sses"):
		return w[:len(w)-2]
	case refHasSuffix(w, "ies"):
		return w[:len(w)-2]
	case refHasSuffix(w, "ss"):
		return w
	case refHasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func refStep1b(w []byte) []byte {
	if refHasSuffix(w, "eed") {
		stem := w[:len(w)-3]
		if refMeasure(stem) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	fired := false
	if refHasSuffix(w, "ed") && refContainsVowel(w[:len(w)-2]) {
		w = w[:len(w)-2]
		fired = true
	} else if refHasSuffix(w, "ing") && refContainsVowel(w[:len(w)-3]) {
		w = w[:len(w)-3]
		fired = true
	}
	if !fired {
		return w
	}
	switch {
	case refHasSuffix(w, "at"), refHasSuffix(w, "bl"), refHasSuffix(w, "iz"):
		return append(w, 'e')
	case refEndsDoubleCons(w) && !refHasSuffix(w, "l") && !refHasSuffix(w, "s") && !refHasSuffix(w, "z"):
		return w[:len(w)-1]
	case refMeasure(w) == 1 && refEndsCVC(w):
		return append(w, 'e')
	}
	return w
}

func refStep1c(w []byte) []byte {
	if refHasSuffix(w, "y") && refContainsVowel(w[:len(w)-1]) {
		w2 := make([]byte, len(w))
		copy(w2, w)
		w2[len(w2)-1] = 'i'
		return w2
	}
	return w
}

var refStep2Rules = []struct{ s, r string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func refStep2(w []byte) []byte {
	for _, rule := range refStep2Rules {
		if refHasSuffix(w, rule.s) {
			out, _ := refReplaceSuffix(w, rule.s, rule.r, 0)
			return out
		}
	}
	return w
}

var refStep3Rules = []struct{ s, r string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func refStep3(w []byte) []byte {
	for _, rule := range refStep3Rules {
		if refHasSuffix(w, rule.s) {
			out, _ := refReplaceSuffix(w, rule.s, rule.r, 0)
			return out
		}
	}
	return w
}

var refStep4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func refStep4(w []byte) []byte {
	for _, s := range refStep4Suffixes {
		if !refHasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if refMeasure(stem) > 1 {
			return stem
		}
		return w
	}
	// (m>1 and (*S or *T)) ION ->
	if refHasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if len(stem) > 0 && refMeasure(stem) > 1 &&
			(stem[len(stem)-1] == 's' || stem[len(stem)-1] == 't') {
			return stem
		}
	}
	return w
}

func refStep5a(w []byte) []byte {
	if !refHasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := refMeasure(stem)
	if m > 1 || (m == 1 && !refEndsCVC(stem)) {
		return stem
	}
	return w
}

func refStep5b(w []byte) []byte {
	if refMeasure(w) > 1 && refEndsDoubleCons(w) && refHasSuffix(w, "l") {
		return w[:len(w)-1]
	}
	return w
}
