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
}

// IsEntity reports whether the unit is a named entity.
func (u Unit) IsEntity() bool { return u.Entity != "" }

// Lower returns the lower-cased surface text, through textproc's word
// table.
func (u Unit) Lower() string { return textproc.Lower(u.Text) }

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
// allocating for the units. Each token is lower-cased once, for the
// recognizer and the tagger alike; tokens, lower-cased forms, tags and
// entities go into pooled scratch that no returned unit references. A
// unit's text is a slice of text, or of a string the recognizer joined.
func (a *Annotator) AppendUnits(dst []Unit, text string) []Unit {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	tokens := sc.text.Tokenize(text)
	lowered := sc.text.Lowered()
	sc.entities = a.rec.AppendEntities(sc.entities[:0], text, tokens, lowered)
	sc.tags = pos.AppendTags(sc.tags[:0], tokens, lowered)

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
			dst = append(dst, Unit{Text: tokens[i].Text, POS: tags[i].Coarse()})
		}
		// numbers outside entities cannot occur (CNT catches them);
		// punctuation and symbols are dropped.
		i++
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
