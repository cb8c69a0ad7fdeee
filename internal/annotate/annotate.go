// Package annotate combines the named-entity recognizer and the
// part-of-speech tagger into ETAP's annotator component (Figure 2): every
// snippet is annotated before classification, and "any entity that did not
// fall in the above categories, was assigned a part-of-speech category".
package annotate

import (
	"slices"
	"sync"

	"etap/internal/ner"
	"etap/internal/pos"
	"etap/internal/textproc"
)

// Unit is one annotated unit of a snippet: either a recognized entity
// (possibly spanning several tokens, collapsed into one unit) or a single
// word with its part-of-speech category.
type Unit struct {
	// Text is the surface text of the unit (entity span or word).
	Text string
	// Entity is the named-entity category, or "" for non-entity units.
	Entity ner.Category
	// POS is the coarse part-of-speech tag; valid when Entity == "".
	POS pos.Tag
	// Word is the word-table entry of a word unit's text, which
	// abstraction reads its normalization from; nil for an entity, and
	// for a unit built by hand.
	Word *textproc.Word
}

// IsEntity reports whether the unit is a named entity.
func (u Unit) IsEntity() bool { return u.Entity != "" }

// Lower returns the lower-cased surface text, from the unit's entry
// or through textproc's word table.
func (u Unit) Lower() string {
	if u.Word != nil {
		return u.Word.Lower
	}
	return textproc.Lower(u.Text)
}

// Annotator runs NER first and fills the gaps with POS tags.
type Annotator struct {
	rec *ner.Recognizer
}

// New builds an annotator around the given recognizer. A nil recognizer
// gets the default one.
func New(rec *ner.Recognizer) *Annotator {
	if rec == nil {
		rec = ner.NewRecognizer()
	}
	return &Annotator{rec: rec}
}

// Annotate tokenizes text, recognizes entities, collapses each entity
// span into a single unit, and tags the remaining word tokens with their
// coarse part-of-speech category. Punctuation and stray symbols are
// dropped: they carry no signal for trigger-event classification.
func (a *Annotator) Annotate(text string) []Unit {
	return a.AppendUnits(nil, text)
}

// AppendUnits appends the units Annotate returns to dst and returns the
// extended slice, so a caller that reuses one buffer annotates without
// allocating for the units. Each token is looked up in textproc's word
// table once, and the recognizer and the tagger read its entry: its
// lower-cased form, gazetteer roles and context-free tags. Tokens,
// entries, tags and entities go into pooled scratch that no returned
// unit references. A unit's text is a slice of text, or of a string
// the recognizer joined.
func (a *Annotator) AppendUnits(dst []Unit, text string) []Unit {
	return a.annotate(dst, nil, text)
}

// AppendUnitsAndWords is AppendUnits that also appends to words the
// lower-cased form of every word token of text, in order — what
// rank.Lexicon.ScoreWords reads — so a caller that scores a snippet's
// orientation does not tokenize it again.
func (a *Annotator) AppendUnitsAndWords(dst []Unit, words []string, text string) ([]Unit, []string) {
	dst = a.annotate(dst, &words, text)
	return dst, words
}

// annotate is AppendUnits, appending the word tokens' lower-cased forms
// to *words when words is not nil.
func (a *Annotator) annotate(dst []Unit, words *[]string, text string) []Unit {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	tokens := sc.text.Tokenize(text)
	entries := sc.text.Lookup()
	sc.entities = a.rec.AppendEntities(sc.entities[:0], text, tokens, entries)
	sc.tags = pos.AppendTags(sc.tags[:0], tokens, entries)

	dst = slices.Grow(dst, len(tokens))
	entities, tags := sc.entities, sc.tags
	ei := 0
	for i := 0; i < len(tokens); {
		if ei < len(entities) && entities[ei].TokenStart == i {
			e := entities[ei]
			dst = append(dst, Unit{Text: e.Text, Entity: e.Category})
			i = e.TokenEnd
			ei++
			continue
		}
		if tokens[i].Kind == textproc.KindWord {
			dst = append(dst, Unit{Text: tokens[i].Text, POS: tags[i].Coarse(), Word: entries[i]})
		}
		// numbers outside entities cannot occur (CNT catches them);
		// punctuation and symbols are dropped.
		i++
	}
	if words != nil {
		for i, t := range tokens {
			if t.Kind == textproc.KindWord {
				*words = append(*words, entries[i].Lower)
			}
		}
	}
	return dst
}

// scratch is one annotation's pooled working memory.
type scratch struct {
	text     textproc.Scratch
	entities []ner.Entity
	tags     []pos.Tag
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release clears sc, so a pooled scratch keeps no text reachable, and
// returns it to the pool.
func (sc *scratch) release() {
	sc.text.Reset()
	clear(sc.entities)
	sc.entities, sc.tags = sc.entities[:0], sc.tags[:0]
	scratchPool.Put(sc)
}

// EntityCategories returns the set of entity categories present in units.
// The training-data filters of Section 3.3.1 ("Designation AND (Person OR
// Organization)") are evaluated against this set.
func EntityCategories(units []Unit) map[ner.Category]bool {
	out := make(map[ner.Category]bool)
	for _, u := range units {
		if u.IsEntity() {
			out[u.Entity] = true
		}
	}
	return out
}

// CountEntities returns the number of entity units with the given
// category.
func CountEntities(units []Unit, cat ner.Category) int {
	n := 0
	for _, u := range units {
		if u.Entity == cat {
			n++
		}
	}
	return n
}
