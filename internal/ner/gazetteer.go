package ner

import (
	"etap/internal/gazetteer"
	"etap/internal/textproc"
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
		toks := gazetteer.PhraseWords(p)
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

// match reports the number of tokens matched starting at words[i] (0
// if none), comparing the tokens' lower-cased forms.
func (t *phraseTable) match(words []*textproc.Word, i int) int {
	cands, ok := t.byFirst[words[i].Lower]
	if !ok {
		return 0
	}
outer:
	for _, cand := range cands {
		if i+len(cand) > len(words) {
			continue
		}
		for j := 1; j < len(cand); j++ {
			if words[i+j].Lower != cand[j] {
				continue outer
			}
		}
		return len(cand)
	}
	return 0
}

// gazetteers bundles every lookup structure the recognizer needs.
type gazetteers struct {
	designations *phraseTable
	places       *phraseTable
	products     *phraseTable
	objects      *phraseTable
	lengthUnits  *phraseTable
}

// defaultGazetteers builds the phrase tables. A phrase table is probed
// only where a token's gazetteer roles (textproc.Word.Roles) say one of
// its phrases starts.
func defaultGazetteers() *gazetteers {
	return &gazetteers{
		designations: newPhraseTable(DESIG, gazetteer.Designations),
		places:       newPhraseTable(PLC, gazetteer.Places),
		products:     newPhraseTable(PROD, gazetteer.Products),
		objects:      newPhraseTable(OBJ, gazetteer.Objects),
		lengthUnits:  newPhraseTable(LNGTH, gazetteer.LengthUnits),
	}
}
