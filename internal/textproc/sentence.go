package textproc

import (
	"strings"
	"unicode/utf8"
)

// Sentence is a contiguous span of the source document recognized as a
// single sentence by the rule-based chunker.
type Sentence struct {
	Text  string // trimmed sentence text
	Start int    // byte offset of the first byte in the source
	End   int    // byte offset one past the last byte
}

// abbreviations that do not end a sentence even when followed by a period.
// The set mirrors what a business-news sentence chunker needs: honorifics,
// corporate suffixes, and common truncations.
var abbreviations = map[string]bool{
	"mr": true, "mrs": true, "ms": true, "dr": true, "prof": true,
	"sr": true, "jr": true, "st": true, "rev": true, "gen": true,
	"rep": true, "sen": true, "gov": true, "capt": true, "lt": true,
	"col": true, "sgt": true, "hon": true,
	"inc": true, "corp": true, "co": true, "ltd": true, "llc": true,
	"plc": true, "llp": true, "bros": true, "assn": true, "dept": true,
	"div": true, "mfg": true, "intl": true, "natl": true,
	"jan": true, "feb": true, "mar": true, "apr": true, "jun": true,
	"jul": true, "aug": true, "sep": true, "sept": true, "oct": true,
	"nov": true, "dec": true,
	"vs": true, "etc": true, "eg": true, "ie": true, "cf": true,
	"approx": true, "est": true, "fig": true, "no": true, "nos": true,
	"vol": true, "pp": true, "ed": true, "eds": true,
	"u.s": true, "u.k": true, "u.s.a": true, "e.u": true,
	"a.m": true, "p.m": true, "i.e": true, "e.g": true,
}

// SplitSentences performs rule-based sentence boundary detection.
//
// Rules (Section 3.1: "We have built a sentence chunker based on rules for
// sentence boundary detection"):
//
//  1. '.', '!' and '?' are candidate terminators.
//  2. A period does not terminate when the preceding token is a known
//     abbreviation, a single capital letter (middle initial), or when it
//     sits inside a number ("3.5").
//  3. A candidate only terminates when followed by whitespace and either
//     end-of-text, an upper-case letter, a digit, or an opening quote.
//  4. Newlines that separate paragraphs (two or more in a row) always
//     terminate the current sentence.
func SplitSentences(text string) []Sentence {
	return AppendSentences(nil, text)
}

// AppendSentences appends the sentences SplitSentences returns to dst
// and returns the extended slice, so a caller that reuses one buffer
// splits without allocating for the list. The sentences alias text.
func AppendSentences(dst []Sentence, text string) []Sentence {
	sentences := dst
	n := len(text)

	// Offsets are byte offsets. Runes are decoded in place (see
	// decodeRune), so invalid UTF-8 keeps the offsets a range loop
	// reports. Every rule below tests ASCII bytes first, and an ASCII
	// byte is never part of a multi-byte sequence, so stepping over the
	// bytes of other runes one at a time never misreads them.
	flush := func(from, to int) {
		if from >= to {
			return
		}
		raw := text[from:to]
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" {
			return
		}
		lead := len(raw) - len(strings.TrimLeft(raw, " \t\r\n"))
		trail := len(raw) - len(strings.TrimRight(raw, " \t\r\n"))
		sentences = append(sentences, Sentence{
			Text:  trimmed,
			Start: from + lead,
			End:   to - trail,
		})
	}

	start := 0
	i := 0
	for i < n {
		c := text[i]

		// Paragraph break: two or more consecutive newlines.
		if c == '\n' {
			j := i
			nl := 0
			for j < n && (text[j] == '\n' || text[j] == '\r' || text[j] == ' ' || text[j] == '\t') {
				if text[j] == '\n' {
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

		if c != '.' && c != '!' && c != '?' {
			i++
			continue
		}

		if c == '.' {
			// Period inside a number: "3.5 billion".
			if i > 0 && i+1 < n {
				prev, _ := utf8.DecodeLastRuneInString(text[:i])
				next, _ := decodeRune(text, i+1)
				if isDigit(prev) && isDigit(next) {
					i++
					continue
				}
			}
			// Abbreviation or initial before the period.
			word := precedingWord(text, i)
			if abbreviations[Lower(word)] || isInitial(word) {
				i++
				continue
			}
		}

		// Absorb any run of terminators and closing quotes/brackets.
		j := i + 1
		var r rune
		for j < n {
			var w int
			r, w = decodeRune(text, j)
			if !closesSentence(r) {
				break
			}
			j += w
		}

		// Must be followed by whitespace (or end of text).
		if j < n && !isSpace(r) {
			i = j
			continue
		}
		// Skip whitespace and check the next visible rune.
		k := j
		for k < n {
			var w int
			r, w = decodeRune(text, k)
			if !isSpace(r) {
				break
			}
			k += w
		}
		if k < n && !isUpper(r) && !isDigit(r) &&
			r != '"' && r != '“' && r != '(' && r != '‘' && r != '\'' {
			i = j
			continue
		}

		flush(start, j)
		start = k
		i = k
	}
	flush(start, n)
	return sentences
}

// closesSentence reports whether r may follow a terminator inside the
// sentence it ends: another terminator or a closing quote or bracket.
func closesSentence(r rune) bool {
	switch r {
	case '.', '!', '?', '"', '\'', ')', ']', '”', '’':
		return true
	}
	return false
}

// precedingWord returns the maximal letter-or-period run that ends
// immediately before text[end] (a period position), decoding runes
// backwards in place. A period counts only when a letter precedes it.
func precedingWord(text string, end int) string {
	j := end
	for j > 0 {
		r, w := utf8.DecodeLastRuneInString(text[:j])
		if isLetter(r) {
			j -= w
			continue
		}
		if r == '.' && j > 1 {
			if prev, _ := utf8.DecodeLastRuneInString(text[:j-1]); isLetter(prev) {
				j--
				continue
			}
		}
		break
	}
	return text[j:end]
}

// isInitial reports whether word looks like a person's initial ("J",
// "J.K") — a single capital letter or dotted capitals.
func isInitial(word string) bool {
	if word == "" {
		return false
	}
	letters := 0
	for _, r := range word {
		if r == '.' {
			continue
		}
		if !isUpper(r) {
			return false
		}
		letters++
	}
	return letters >= 1 && letters <= 2 && len([]rune(word)) <= 3
}
