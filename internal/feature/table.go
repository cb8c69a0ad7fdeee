package feature

import (
	"strings"

	"etap/internal/ner"
	"etap/internal/pos"
)

// Table gives every feature abstraction can emit a dense integer id:
// an instance-valued word by its stem ("w=acquir"), an instance-valued
// entity by its category and lower-cased text ("ORG=ibm"), and a
// presence-absence feature by its category ("ENT=ORG", "POS=nn").
// Abstraction emits table ids, not names; a driver's Projection maps
// them to its vocabulary, so one table lookup per feature serves every
// driver. Names are built only on request (Name), for feature selection
// ties, vocabularies and snapshots.
//
// Abstraction goes through a policy compiled against the table
// (Compile). Only training and driver import grow the table
// (Compiled.AppendInterned, Intern, Project); scoring
// (Compiled.AppendIDs) never does, and leaves out the features the
// table lacks, which no vocabulary built from it can hold. Lookups are
// safe for concurrent use with each other; growth must not run
// concurrently with anything else.
type Table struct {
	words map[string]int32
	ents  map[entityKey]int32
	pa    map[Category]int32
	other map[string]int32 // imported names abstraction never emits
	feats []tableFeature   // by id
}

// entityKey identifies an instance-valued entity feature.
type entityKey struct {
	cat   ner.Category
	lower string
}

// featureKind tells which of the table's maps holds a feature.
type featureKind uint8

const (
	kindWord featureKind = iota
	kindEntity
	kindPA
	kindOther
)

// tableFeature is what one id stands for: the word's stem, the
// entity's lower-cased text, or the name of another feature in text;
// the entity or presence-absence category in cat.
type tableFeature struct {
	kind featureKind
	cat  Category
	text string
}

// NewTable returns an empty feature table.
func NewTable() *Table {
	return &Table{
		words: make(map[string]int32),
		ents:  make(map[entityKey]int32),
		pa:    make(map[Category]int32),
		other: make(map[string]int32),
	}
}

// Len returns the number of features in the table; ids are [0, Len).
func (t *Table) Len() int { return len(t.feats) }

// Name returns the feature name id stands for, as the name-based
// abstraction of earlier versions wrote it: "w=<stem>" for an
// instance-valued word, "<CAT>=<lower>" for an instance-valued entity,
// "ENT=<CAT>" or "POS=<tag>" for a presence-absence category.
func (t *Table) Name(id int32) string {
	f := t.feats[id]
	switch f.kind {
	case kindWord:
		return "w=" + f.text
	case kindEntity:
		return string(f.cat.Entity) + "=" + f.text
	case kindPA:
		if f.cat.Entity != "" {
			return "ENT=" + string(f.cat.Entity)
		}
		return "POS=" + string(f.cat.POS)
	}
	return f.text
}

// Intern returns the id of the feature called name (see Name), adding
// it if new. A name in none of Name's forms gets an id abstraction
// never emits, so a vocabulary may hold it without matching anything.
func (t *Table) Intern(name string) int32 {
	switch {
	case strings.HasPrefix(name, "w="):
		return t.wordID(name[2:], true)
	case strings.HasPrefix(name, "ENT="):
		return t.paID(EntityCategory(ner.Category(name[4:])), true)
	case strings.HasPrefix(name, "POS="):
		return t.paID(POSCategory(pos.Tag(name[4:])), true)
	}
	if i := strings.IndexByte(name, '='); i > 0 {
		return t.entityID(ner.Category(name[:i]), name[i+1:], true)
	}
	if id, ok := t.other[name]; ok {
		return id
	}
	name = strings.Clone(name)
	id := t.add(tableFeature{kind: kindOther, text: name})
	t.other[name] = id
	return id
}

// add appends a feature and returns its id.
func (t *Table) add(f tableFeature) int32 {
	t.feats = append(t.feats, f)
	return int32(len(t.feats) - 1)
}

// wordID returns the id of the word feature of stem, adding it when
// grow is set, else -1 when the table lacks it. Keys are cloned: a stem
// may share the bytes of a page.
func (t *Table) wordID(stem string, grow bool) int32 {
	if id, ok := t.words[stem]; ok {
		return id
	}
	if !grow {
		return -1
	}
	stem = strings.Clone(stem)
	id := t.add(tableFeature{kind: kindWord, text: stem})
	t.words[stem] = id
	return id
}

// entityID is wordID for the entity feature of (cat, lower).
func (t *Table) entityID(cat ner.Category, lower string, grow bool) int32 {
	if id, ok := t.ents[entityKey{cat, lower}]; ok {
		return id
	}
	if !grow {
		return -1
	}
	lower = strings.Clone(lower)
	id := t.add(tableFeature{kind: kindEntity, cat: EntityCategory(cat), text: lower})
	t.ents[entityKey{cat, lower}] = id
	return id
}

// paID is wordID for the presence-absence feature of category c.
func (t *Table) paID(c Category, grow bool) int32 {
	if id, ok := t.pa[c]; ok {
		return id
	}
	if !grow {
		return -1
	}
	id := t.add(tableFeature{kind: kindPA, cat: c})
	t.pa[c] = id
	return id
}

// Project interns every feature of v and returns the projection of the
// table onto v.
func (t *Table) Project(v *Vocab) Projection {
	ids := make([]int32, v.Size())
	for i := range ids {
		ids[i] = t.Intern(v.Name(i))
	}
	p := make(Projection, t.Len())
	for i := range p {
		p[i] = -1
	}
	for vid, id := range ids {
		p[id] = int32(vid)
	}
	return p
}

// Projection maps table ids onto one vocabulary: p[id] is the
// vocabulary id of table feature id, or -1 when the vocabulary lacks
// it. Ids at or beyond len(p) were added to the table after the
// projection was built, so the vocabulary lacks them too.
type Projection []int32
