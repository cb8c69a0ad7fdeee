package textproc

import (
	"strings"
	"sync/atomic"
)

// Lex is the paper's pre-processing of one word (Section 3.2.1): its
// lower-cased form, its Porter stem and whether it is a stop word.
type Lex struct {
	Lower string // strings.ToLower of the word
	Stem  string // the Porter stem of Lower
	Stop  bool   // Lower is a stop word
}

// lexEntry is one word table slot's occupant: a word and its Lex.
type lexEntry struct {
	word string
	Lex
}

const (
	// lexBits sizes the word table at 1<<lexBits slots, several times
	// the few thousand distinct tokens a generated world holds.
	lexBits = 14
	// maxLexWord is the longest word, in bytes, the table keeps; it is
	// the stemmer's stack buffer. Longer words are normalized afresh on
	// every call.
	maxLexWord = 32
)

// lexTable is the process-wide word table. A word's slot is fixed by
// its FNV-1a hash, with no per-process seed, and holds the last word
// normalized there: a lookup that finds another word recomputes and
// takes the slot over. Each entry is immutable once stored, and an
// entry is a pure function of its word, so racing lookups may both
// compute it and either may win without changing any answer.
var lexTable [1 << lexBits]atomic.Pointer[lexEntry]

// Normalize returns word's Lex. Each distinct word is lower-cased,
// stemmed and looked up in the stop-word list once: later calls find
// it in the word table and allocate nothing.
func Normalize(word string) Lex { return lookup(word).Lex }

// Lower returns strings.ToLower(word), through the word table.
func Lower(word string) string { return lookup(word).Lower }

// lookup returns word's table entry. The key is cloned before it is
// stored, so no entry keeps the text word was sliced from reachable.
func lookup(word string) *lexEntry {
	if len(word) > maxLexWord {
		return newLexEntry(word)
	}
	slot := &lexTable[lexSlot(word)]
	if e := slot.Load(); e != nil && e.word == word {
		return e
	}
	e := newLexEntry(strings.Clone(word))
	slot.Store(e)
	return e
}

// newLexEntry normalizes word. Lower and Stem share word's bytes where
// they can: strings.ToLower returns an already lower-case word itself,
// and a stem is usually a prefix of its lower-cased word.
func newLexEntry(word string) *lexEntry {
	lower := strings.ToLower(word)
	return &lexEntry{word: word, Lex: Lex{Lower: lower, Stem: porterStem(lower), Stop: stopwords[lower]}}
}

// lexSlot is word's slot in the table: the low lexBits bits of its
// 64-bit FNV-1a hash. The multiply carries each byte upwards only, so
// the low bits depend on every byte while the top bits hardly see the
// last one: "," and "." would share a top-bits slot.
func lexSlot(word string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(word); i++ {
		h ^= uint64(word[i])
		h *= 1099511628211
	}
	return h & (1<<lexBits - 1)
}
