// Package train implements ETAP's training-data generation (Section
// 3.3.1): smart queries against the search engine fetch driver-relevant
// pages; snippet-level filters over named-entity annotations distill the
// noisy positive set; random sampling of the web yields the negative
// class; pure positives are oversampled.
package train

import (
	"etap/internal/annotate"
	"etap/internal/ner"
	"etap/internal/textproc"
)

// Filter is a predicate over an annotated snippet. The paper's examples:
// "Designation AND (Person OR Organization)" for change in management,
// "Discard all snippets not containing two ORG annotations" for mergers
// & acquisitions.
type Filter func(units []annotate.Unit) bool

// Has matches snippets containing at least one entity of category c.
func Has(c ner.Category) Filter {
	return func(units []annotate.Unit) bool {
		return annotate.CountEntities(units, c) >= 1
	}
}

// MinCount matches snippets containing at least n entities of category c.
func MinCount(c ner.Category, n int) Filter {
	return func(units []annotate.Unit) bool {
		return annotate.CountEntities(units, c) >= n
	}
}

// ContainsAnyStem matches snippets containing any of the given words
// (compared on stems, so "acquire" matches "acquired").
func ContainsAnyStem(words ...string) Filter {
	stems := make(map[string]bool, len(words))
	for _, w := range words {
		for _, t := range textproc.Words(w) {
			stems[textproc.Stem(t)] = true
		}
	}
	return func(units []annotate.Unit) bool {
		for _, u := range units {
			if u.IsEntity() {
				continue
			}
			if stems[textproc.Stem(u.Text)] {
				return true
			}
		}
		return false
	}
}

// And matches when every sub-filter matches.
func And(fs ...Filter) Filter {
	return func(units []annotate.Unit) bool {
		for _, f := range fs {
			if !f(units) {
				return false
			}
		}
		return true
	}
}

// Or matches when any sub-filter matches.
func Or(fs ...Filter) Filter {
	return func(units []annotate.Unit) bool {
		for _, f := range fs {
			if f(units) {
				return true
			}
		}
		return false
	}
}

// Not inverts a filter.
func Not(f Filter) Filter {
	return func(units []annotate.Unit) bool { return !f(units) }
}
