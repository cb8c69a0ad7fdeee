// Package annotate combines the named-entity recognizer and the
// part-of-speech tagger into ETAP's annotator component (Figure 2): every
// snippet is annotated before classification, and "any entity that did not
// fall in the above categories, was assigned a part-of-speech category".
package annotate

import (
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
// dropped: they carry no signal for trigger-event classification. Each
// token is lower-cased once, for the recognizer and the tagger alike,
// into pooled scratch that no returned unit references.
func (a *Annotator) Annotate(text string) []Unit {
	sc := textproc.GetScratch()
	defer sc.Release()
	tokens := sc.Tokenize(text)
	lowered := sc.Lowered()
	entities := a.rec.RecognizeLowered(tokens, lowered)
	tags := pos.Tags(tokens, lowered)

	units := make([]Unit, 0, len(tokens))
	ei := 0
	for i := 0; i < len(tokens); {
		if ei < len(entities) && entities[ei].TokenStart == i {
			e := entities[ei]
			units = append(units, Unit{Text: e.Text, Entity: e.Category})
			i = e.TokenEnd
			ei++
			continue
		}
		if tokens[i].Kind == textproc.KindWord {
			units = append(units, Unit{Text: tokens[i].Text, POS: tags[i].Coarse()})
		}
		// numbers outside entities cannot occur (CNT catches them);
		// punctuation and symbols are dropped.
		i++
	}
	return units
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
