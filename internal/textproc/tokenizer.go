// Package textproc provides the low-level text processing substrate used
// throughout ETAP: tokenization, rule-based sentence boundary detection,
// Porter stemming, stop-word filtering and normalization.
//
// The pipeline mirrors the pre-processing described in Section 3.2.1 of the
// paper: "simple operations such as changing all text to lower case,
// stemming, and stop-word elimination". Each distinct word goes through
// them once: a process-wide word table (Normalize) keeps its results.
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
		case unicode.IsSpace(r):
			i = j
			continue
		case unicode.IsLetter(r):
			kind = KindWord
			for j < n {
				rj, wj := decodeRune(text, j)
				if unicode.IsLetter(rj) || unicode.IsDigit(rj) {
					j += wj
					continue
				}
				// Keep internal apostrophes/hyphens/periods when
				// followed by a letter: "don't", "vice-president",
				// "U.S.A" (trailing period handled by sentence rules).
				if (rj == '\'' || rj == '-' || rj == '.' || rj == '&') && j+1 < n {
					if rk, wk := decodeRune(text, j+1); unicode.IsLetter(rk) {
						j += 1 + wk
						continue
					}
				}
				break
			}
		case unicode.IsDigit(r):
			kind = KindNumber
			for j < n {
				rj, wj := decodeRune(text, j)
				if unicode.IsDigit(rj) {
					j += wj
					continue
				}
				if (rj == ',' || rj == '.') && j+1 < n {
					if rk, wk := decodeRune(text, j+1); unicode.IsDigit(rk) {
						j += 1 + wk
						continue
					}
				}
				break
			}
		case isSymbolRune(r):
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

func isSymbolRune(r rune) bool {
	switch r {
	case '$', '%', '€', '£', '¥', '#', '+', '=', '<', '>', '@', '^', '~', '|':
		return true
	}
	return unicode.IsSymbol(r) && r != '\''
}

// Lowered returns the lower-cased surface form of every token, in
// token order: the slice the recognizer's and the tagger's lowered-slice
// entry points share, so each token is lower-cased once.
func Lowered(tokens []Token) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = Lower(t.Text)
	}
	return out
}

// Scratch holds reusable buffers for one text at a time: its tokens
// and a string per token or per word, so that a caller tokenizing many
// texts allocates nothing once the buffers have grown. Get one with
// GetScratch and return it with Release.
type Scratch struct {
	// Tokens holds the tokens Tokenize wrote.
	Tokens []Token
	// Words holds the forms Lowered wrote, or any per-word strings
	// the caller appends (the index appends its terms).
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

// Lowered replaces s.Words with the lower-cased form of every token in
// s.Tokens, exactly as the package-level Lowered returns them, and
// returns them. They stay valid until the next change to s.Words or
// Release.
func (s *Scratch) Lowered() []string {
	clear(s.Words)
	s.Words = s.Words[:0]
	for _, t := range s.Tokens {
		s.Words = append(s.Words, Lower(t.Text))
	}
	return s.Words
}

// Release empties s and returns it to the pool; s must not be used
// afterwards. Tokens alias the text they came from, so every buffer is
// cleared first: a pooled Scratch keeps no document reachable.
func (s *Scratch) Release() {
	clear(s.Tokens)
	clear(s.Words)
	s.Tokens, s.Words = s.Tokens[:0], s.Words[:0]
	scratchPool.Put(s)
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
