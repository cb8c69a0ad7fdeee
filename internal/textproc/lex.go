package textproc

import (
	"strings"
	"sync/atomic"
	"unicode"

	"etap/internal/gazetteer"
	"etap/internal/postag"
)

// Lex is the paper's pre-processing of one word (Section 3.2.1): its
// lower-cased form, its Porter stem and whether it is a stop word.
type Lex struct {
	Lower string // strings.ToLower of the word
	Stem  string // the Porter stem of Lower
	Stop  bool   // Lower is a stop word
}

// Word is a word table entry: everything ETAP derives from one word
// out of context, for a token of that text. Every field is a pure
// function of the word, and an entry is never changed once made, so
// reading a word's entry gives what computing it afresh would.
type Word struct {
	word string // the table key
	Lex
	// Cap reports whether the word's first rune is upper case.
	Cap bool
	// Roles are the gazetteer roles of Lower, for the recognizer.
	Roles gazetteer.Roles
	// Tags are the part-of-speech facts of the word, for the tagger.
	Tags postag.Facts
}

const (
	// lexSetBits sizes the word table at 1<<lexSetBits sets of two
	// entries, several times the few thousand distinct tokens a
	// generated world holds.
	lexSetBits = 13
	// maxLexWord is the longest word, in bytes, the table keeps; it is
	// the stemmer's stack buffer. Longer words are computed afresh on
	// every call.
	maxLexWord = 32
)

// lexTable is the process-wide word table, 2-way set-associative. A
// word's set is fixed by its FNV-1a hash, with no per-process seed. A
// word missing from its set takes way 0 and moves the word there to
// way 1, dropping way 1's: a word stays until two other words of its
// set arrive after it, so two frequent words of one set never evict
// each other, and a hit writes nothing. Entries are immutable and pure
// functions of their word, so racing lookups may compute one entry
// twice or leave a set holding any mix of them without changing an
// answer.
var lexTable [1 << lexSetBits][2]atomic.Pointer[Word]

// Lookup returns word's entry. Each distinct word is computed once:
// later calls find it in the word table and allocate nothing. The key
// is cloned before it is stored, so no entry keeps the text word was
// sliced from reachable.
func Lookup(word string) *Word {
	if len(word) > maxLexWord {
		return newWord(word)
	}
	set := &lexTable[lexSet(word)]
	first := set[0].Load()
	if first != nil && first.word == word {
		return first
	}
	if e := set[1].Load(); e != nil && e.word == word {
		return e
	}
	e := newWord(strings.Clone(word))
	if first != nil {
		set[1].Store(first)
	}
	set[0].Store(e)
	return e
}

// Normalize returns word's Lex, through the word table.
func Normalize(word string) Lex { return Lookup(word).Lex }

// Lower returns strings.ToLower(word), through the word table.
func Lower(word string) string { return Lookup(word).Lower }

// newWord computes word's entry. Lower and Stem share word's bytes
// where they can: strings.ToLower returns an already lower-case word
// itself, and a stem is usually a prefix of its lower-cased word.
func newWord(word string) *Word {
	lower := strings.ToLower(word)
	e := &Word{
		word:  word,
		Lex:   Lex{Lower: lower, Stem: porterStem(lower), Stop: stopwords[lower]},
		Roles: gazetteer.RolesOf(lower),
		Tags:  postag.Of(word, lower),
	}
	for _, r := range word {
		e.Cap = unicode.IsUpper(r)
		break
	}
	return e
}

// lexSet is word's set in the table: the low lexSetBits bits of its
// 64-bit FNV-1a hash. The multiply carries each byte upwards only, so
// the low bits depend on every byte while the top bits hardly see the
// last one: "," and "." would share a top-bits set.
func lexSet(word string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(word); i++ {
		h ^= uint64(word[i])
		h *= 1099511628211
	}
	return h & (1<<lexSetBits - 1)
}
