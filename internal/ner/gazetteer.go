package ner

import (
	"strings"

	"etap/internal/gazetteer"
)

// phraseTable indexes multi-token gazetteer phrases by their lower-cased
// first token. Matching tries the longest phrase first.
type phraseTable struct {
	// byFirst maps the first token (lower-cased) to candidate phrases,
	// each a slice of lower-cased tokens, sorted longest first.
	byFirst map[string][][]string
	cat     Category
}

func newPhraseTable(cat Category, phrases []string) *phraseTable {
	t := &phraseTable{byFirst: make(map[string][][]string), cat: cat}
	for _, p := range phrases {
		toks := strings.Fields(strings.ToLower(p))
		if len(toks) == 0 {
			continue
		}
		t.byFirst[toks[0]] = append(t.byFirst[toks[0]], toks)
	}
	for k, list := range t.byFirst {
		// longest first (stable insertion order breaks ties)
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && len(list[j]) > len(list[j-1]); j-- {
				list[j], list[j-1] = list[j-1], list[j]
			}
		}
		t.byFirst[k] = list
	}
	return t
}

// match reports the number of tokens matched starting at lowered[i]
// (0 if none). lowered holds the lower-cased surface forms.
func (t *phraseTable) match(lowered []string, i int) int {
	cands, ok := t.byFirst[lowered[i]]
	if !ok {
		return 0
	}
outer:
	for _, cand := range cands {
		if i+len(cand) > len(lowered) {
			continue
		}
		for j := 1; j < len(cand); j++ {
			if lowered[i+j] != cand[j] {
				continue outer
			}
		}
		return len(cand)
	}
	return 0
}

// wordBits is the set of gazetteer roles a lower-cased word plays: one
// bit per word set, plus one bit per phrase table with a phrase that
// starts with the word.
type wordBits uint16

const (
	knownOrg          wordBits = 1 << iota // full org name ("ibm")
	companyCore                            // single-token company core
	orgSuffix                              // corporate suffix ("inc")
	firstName                              // given name
	lastName                               // surname
	month                                  // month name
	weekday                                // weekday name
	magnitude                              // "million", "billion", ...
	currencyWord                           // "dollars", "euros", ...
	startsDesignation                      // first word of a designation phrase
	startsPlace                            // first word of a place phrase
	startsProduct                          // first word of a product phrase
	startsObject                           // first word of an object phrase
	startsLengthUnit                       // first word of a length-unit phrase
)

// magnitudes and currencyWords are the recognizer's own word lists for
// currency amounts ("5 million dollars"); they feed the magnitude and
// currencyWord bits.
var magnitudes = []string{"million", "billion", "trillion", "thousand", "crore", "lakh"}

var currencyWords = []string{
	"dollars", "dollar", "euros", "euro", "pounds", "rupees", "yen", "usd", "cents",
}

// gazetteers bundles every lookup structure the recognizer needs.
type gazetteers struct {
	designations *phraseTable
	places       *phraseTable
	products     *phraseTable
	objects      *phraseTable
	lengthUnits  *phraseTable

	// words maps a lower-cased word to every role it plays, so the
	// recognizer probes one map once per token position instead of
	// one map per role; a phrase table is probed only when the word's
	// bit says one of its phrases starts there.
	words map[string]wordBits
}

func defaultGazetteers() *gazetteers {
	g := &gazetteers{
		designations: newPhraseTable(DESIG, gazetteer.Designations),
		places:       newPhraseTable(PLC, gazetteer.Places),
		products:     newPhraseTable(PROD, gazetteer.Products),
		objects:      newPhraseTable(OBJ, gazetteer.Objects),
		lengthUnits:  newPhraseTable(LNGTH, gazetteer.LengthUnits),
		words:        make(map[string]wordBits),
	}
	for _, set := range []struct {
		bit   wordBits
		words []string
	}{
		{knownOrg, gazetteer.KnownOrgs},
		{companyCore, gazetteer.CompanyCores},
		{orgSuffix, gazetteer.CompanySuffixes},
		{firstName, gazetteer.FirstNames},
		{lastName, gazetteer.LastNames},
		{month, gazetteer.Months},
		{weekday, gazetteer.Weekdays},
		{magnitude, magnitudes},
		{currencyWord, currencyWords},
	} {
		for _, w := range set.words {
			g.words[strings.ToLower(w)] |= set.bit
		}
	}
	for _, t := range []struct {
		bit   wordBits
		table *phraseTable
	}{
		{startsDesignation, g.designations},
		{startsPlace, g.places},
		{startsProduct, g.products},
		{startsObject, g.objects},
		{startsLengthUnit, g.lengthUnits},
	} {
		for first := range t.table.byFirst {
			g.words[first] |= t.bit
		}
	}
	return g
}
