// Package feature implements ETAP's feature abstraction machinery
// (Section 3.2): abstraction categories over named-entity and
// part-of-speech types, the presence-absence (PA) versus instance-valued
// (IV) representations, relative information gain (RIG) for choosing
// between them, classical feature selection (chi-square, information gain,
// mutual information), and bag-of-feature vectorization.
package feature

import (
	"strings"

	"etap/internal/annotate"
	"etap/internal/ner"
	"etap/internal/pos"
	"etap/internal/textproc"
)

// Category is an abstraction category: exactly one of a named-entity
// category or a coarse part-of-speech category. The paper's Figures 3-4
// plot both kinds side by side (entity names capitalized, POS in small
// letters).
type Category struct {
	Entity ner.Category // non-empty for entity categories
	POS    pos.Tag      // non-empty for POS categories
}

// EntityCategory builds an entity abstraction category.
func EntityCategory(c ner.Category) Category { return Category{Entity: c} }

// POSCategory builds a part-of-speech abstraction category.
func POSCategory(t pos.Tag) Category { return Category{POS: t} }

// String renders the category using the paper's convention: entity
// categories upper-case, POS categories lower-case.
func (c Category) String() string {
	if c.Entity != "" {
		return string(c.Entity)
	}
	return string(c.POS)
}

// ParseCategory inverts String: an all-upper-case name is an entity
// category, anything else a POS category.
func ParseCategory(s string) Category {
	upper := s != "" && strings.ToUpper(s) == s
	if upper {
		return EntityCategory(ner.Category(s))
	}
	return POSCategory(pos.Tag(s))
}

// Matches reports whether the annotated unit belongs to this category.
func (c Category) Matches(u annotate.Unit) bool {
	if c.Entity != "" {
		return u.Entity == c.Entity
	}
	return !u.IsEntity() && u.POS == c.POS
}

// Instance returns the instance value of the unit under this category:
// the lower-cased surface form (stemmed for POS categories, so that
// "acquired"/"acquires" collapse). ok is false when the unit does not
// belong to the category.
func (c Category) Instance(u annotate.Unit) (string, bool) {
	if !c.Matches(u) {
		return "", false
	}
	if c.Entity != "" {
		return u.Lower(), true
	}
	return textproc.Stem(u.Text), true
}

// AllCategories returns the default category inventory analysed in the
// paper's figures: all 13 entity categories plus the coarse POS classes.
func AllCategories() []Category {
	var out []Category
	for _, e := range ner.Categories {
		out = append(out, EntityCategory(e))
	}
	for _, t := range []pos.Tag{
		pos.TagVB, pos.TagRB, pos.TagNN, pos.TagNP, pos.TagJJ,
		pos.TagIN, pos.TagDT, pos.TagCC, pos.TagPRP,
	} {
		out = append(out, POSCategory(t))
	}
	return out
}

// Representation selects how an abstraction category is rendered as
// classifier features.
type Representation uint8

const (
	// RepPA (presence-absence): the category contributes one binary
	// feature recording whether any instance occurs in the snippet.
	RepPA Representation = iota
	// RepIV (instance-valued): each instance contributes its own feature
	// ("acquired", "new"); the category identity is folded into the
	// feature name.
	RepIV
	// RepDrop removes the category from the feature space entirely
	// (closed-class POS, punctuation).
	RepDrop
)

// String returns the paper's short name for the representation.
func (r Representation) String() string {
	switch r {
	case RepPA:
		return "PA"
	case RepIV:
		return "IV"
	default:
		return "drop"
	}
}
