// Package textproc provides the low-level text processing substrate used
// throughout ETAP: tokenization, rule-based sentence boundary detection,
// Porter stemming, stop-word filtering and normalization.
//
// The pipeline mirrors the pre-processing described in Section 3.2.1 of the
// paper: "simple operations such as changing all text to lower case,
// stemming, and stop-word elimination". Each distinct word goes through
// them once: a process-wide word table (Lookup) keeps its results, with
// the gazetteer roles and part-of-speech facts the recognizer and the
// tagger read for each token.
package textproc

import (
	"sync"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies a surface token.
type TokenKind uint8

const (
	// KindWord is an alphabetic token, possibly with internal
	// apostrophes or hyphens ("company", "don't", "third-quarter").
	KindWord TokenKind = iota
	// KindNumber is a numeric token, possibly with internal commas,
	// periods or a leading sign ("5", "1,200", "3.5").
	KindNumber
	// KindPunct is a single punctuation rune.
	KindPunct
	// KindSymbol is a currency or other symbol ("$", "%", "€").
	KindSymbol
)

// Token is a surface token with its span in the original text.
type Token struct {
	Text  string    // surface form, unmodified
	Kind  TokenKind // coarse lexical class
	Start int       // byte offset of the first byte in the source
	End   int       // byte offset one past the last byte
}

// IsWord reports whether the token is alphabetic.
func (t Token) IsWord() bool { return t.Kind == KindWord }

// IsNumber reports whether the token is numeric.
func (t Token) IsNumber() bool { return t.Kind == KindNumber }

// Lower returns the lower-cased surface form, through the word table.
func (t Token) Lower() string { return Lower(t.Text) }

// Tokenize splits text into word, number, punctuation and symbol tokens.
// Words keep internal apostrophes and hyphens; numbers keep internal commas
// and decimal points ("1,200.50" is one token). All offsets are byte
// offsets into the input.
func Tokenize(text string) []Token {
	return AppendTokens(make([]Token, 0, len(text)/5), text)
}

// AppendTokens appends text's tokens, exactly as Tokenize returns them,
// to tokens and returns the extended slice, so a caller that reuses one
// buffer tokenizes without allocating. The tokens alias text.
func AppendTokens(tokens []Token, text string) []Token {
	n := len(text)
	i := 0
	for i < n {
		r, w := decodeRune(text, i)
		j := i + w
		kind := KindPunct
		switch {
		case isSpace(r):
			i = j
			continue
		case isLetter(r):
			kind = KindWord
			for j < n {
				rj, wj := decodeRune(text, j)
				if isLetterOrDigit(rj) {
					j += wj
					continue
				}
				// Keep internal apostrophes/hyphens/periods when
				// followed by a letter: "don't", "vice-president",
				// "U.S.A" (trailing period handled by sentence rules).
				if (rj == '\'' || rj == '-' || rj == '.' || rj == '&') && j+1 < n {
					if rk, wk := decodeRune(text, j+1); isLetter(rk) {
						j += 1 + wk
						continue
					}
				}
				break
			}
		case isDigit(r):
			kind = KindNumber
			for j < n {
				rj, wj := decodeRune(text, j)
				if isDigit(rj) {
					j += wj
					continue
				}
				if (rj == ',' || rj == '.') && j+1 < n {
					if rk, wk := decodeRune(text, j+1); isDigit(rk) {
						j += 1 + wk
						continue
					}
				}
				break
			}
		case isSymbol(r):
			kind = KindSymbol
		}
		// Token text is sliced from the source by byte offsets, so
		// invalid bytes round-trip exactly.
		tokens = append(tokens, Token{Text: text[i:j], Kind: kind, Start: i, End: j})
		i = j
	}
	return tokens
}

// decodeRune decodes the rune starting at byte offset i of s, with an
// ASCII fast path. Like ranging over a string, it decodes each byte of
// invalid UTF-8 to U+FFFD with width 1, so offsets are the ones a
// range loop would report.
func decodeRune(s string, i int) (rune, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(s[i:])
}

// The classes of an ASCII rune, as the unicode predicates and
// isSymbolRune give them: the tokenizer and the sentence splitter
// classify a byte below utf8.RuneSelf with one load from asciiClass
// and test any other rune with the predicates themselves.
const (
	classSpace uint8 = 1 << iota
	classLetter
	classDigit
	classUpper
	classSymbol
)

var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		r := rune(c)
		for _, p := range []struct {
			class uint8
			is    func(rune) bool
		}{
			{classSpace, unicode.IsSpace},
			{classLetter, unicode.IsLetter},
			{classDigit, unicode.IsDigit},
			{classUpper, unicode.IsUpper},
			{classSymbol, isSymbolRune},
		} {
			if p.is(r) {
				t[c] |= p.class
			}
		}
	}
	return t
}()

func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiClass[r]&classSpace != 0
	}
	return unicode.IsSpace(r)
}

func isLetter(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiClass[r]&classLetter != 0
	}
	return unicode.IsLetter(r)
}

func isDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiClass[r]&classDigit != 0
	}
	return unicode.IsDigit(r)
}

func isLetterOrDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiClass[r]&(classLetter|classDigit) != 0
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isUpper(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiClass[r]&classUpper != 0
	}
	return unicode.IsUpper(r)
}

func isSymbol(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiClass[r]&classSymbol != 0
	}
	return isSymbolRune(r)
}

func isSymbolRune(r rune) bool {
	switch r {
	case '$', '%', '€', '£', '¥', '#', '+', '=', '<', '>', '@', '^', '~', '|':
		return true
	}
	return unicode.IsSymbol(r) && r != '\''
}

// Scratch holds reusable buffers for one text at a time: its tokens,
// their word-table entries and a string per token or per word, so that
// a caller tokenizing many texts allocates nothing once the buffers
// have grown. Get one with GetScratch and return it with Release, or
// keep a zero Scratch inside pooled state of one's own and empty it
// with Reset.
type Scratch struct {
	// Tokens holds the tokens Tokenize wrote.
	Tokens []Token
	// Entries holds the entries Lookup wrote.
	Entries []*Word
	// Words holds any per-word strings the caller appends (the index
	// appends its terms).
	Words []string
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns an empty Scratch from a pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Tokenize replaces s.Tokens with text's tokens, exactly as the
// package-level Tokenize returns them, and returns them. They alias
// text and stay valid until the next Tokenize or Release.
func (s *Scratch) Tokenize(text string) []Token {
	clear(s.Tokens)
	s.Tokens = AppendTokens(s.Tokens[:0], text)
	return s.Tokens
}

// Lookup replaces s.Entries with the word-table entry of every token
// in s.Tokens, in token order, and returns them. They stay valid until
// the next Lookup or Release.
func (s *Scratch) Lookup() []*Word {
	clear(s.Entries)
	s.Entries = s.Entries[:0]
	for _, t := range s.Tokens {
		s.Entries = append(s.Entries, Lookup(t.Text))
	}
	return s.Entries
}

// Release empties s and returns it to the pool; s must not be used
// afterwards.
func (s *Scratch) Release() {
	s.Reset()
	scratchPool.Put(s)
}

// Reset empties s and keeps its buffers. Tokens alias the text they
// came from, and an entry of a word too long for the word table does
// too, so every buffer is cleared: an emptied Scratch keeps no
// document reachable.
func (s *Scratch) Reset() {
	clear(s.Tokens)
	clear(s.Entries)
	clear(s.Words)
	s.Tokens, s.Entries, s.Words = s.Tokens[:0], s.Entries[:0], s.Words[:0]
}

// Words returns the lower-cased word tokens of text, dropping punctuation,
// numbers and symbols. It is the convenience entry point used by callers
// that only need a bag of words.
func Words(text string) []string {
	sc := GetScratch()
	defer sc.Release()
	toks := sc.Tokenize(text)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if t.Kind == KindWord {
			out = append(out, Lower(t.Text))
		}
	}
	return out
}
