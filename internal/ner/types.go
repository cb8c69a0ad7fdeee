// Package ner implements the named-entity recognizer ETAP relies on for
// feature abstraction (Section 3.2.1). It identifies and annotates
// entities in the same 13 categories as the recognizer of [11]:
//
//	ORG       organization name
//	DESIG     designation (job title)
//	OBJ       object name (named deals, programs, funds)
//	TIM       time of day
//	PERIOD    months, days, dates, quarters
//	CURRENCY  currency measure
//	YEAR      sole mention of a year
//	PRCNT     percentage figure
//	PROD      product name
//	PLC       place name
//	PRSN      person name
//	LNGTH     units of measurement other than currency
//	CNT       count figures
//
// The recognizer is deterministic: gazetteer lookups (longest match wins)
// plus pattern rules for the numeric categories.
package ner

import "etap/internal/textproc"

// Category is a named-entity category. Category names are upper-case,
// matching the paper's convention that distinguishes entity categories
// from (lower-case) part-of-speech categories.
type Category string

// The 13 entity categories of the ETAP recognizer.
const (
	ORG      Category = "ORG"
	DESIG    Category = "DESIG"
	OBJ      Category = "OBJ"
	TIM      Category = "TIM"
	PERIOD   Category = "PERIOD"
	CURRENCY Category = "CURRENCY"
	YEAR     Category = "YEAR"
	PRCNT    Category = "PRCNT"
	PROD     Category = "PROD"
	PLC      Category = "PLC"
	PRSN     Category = "PRSN"
	LNGTH    Category = "LNGTH"
	CNT      Category = "CNT"
)

// Categories lists all 13 categories in the paper's order.
var Categories = []Category{
	ORG, DESIG, OBJ, TIM, PERIOD, CURRENCY, YEAR, PRCNT, PROD, PLC,
	PRSN, LNGTH, CNT,
}

// Entity is a recognized named entity spanning one or more tokens.
type Entity struct {
	Category   Category
	Text       string // surface text joined from the matched tokens
	TokenStart int    // index of the first matched token
	TokenEnd   int    // index one past the last matched token
	Start      int    // byte offset in the source text
	End        int    // byte offset one past the last byte
}

// Span returns the number of tokens the entity covers.
func (e Entity) Span() int { return e.TokenEnd - e.TokenStart }

// entityText renders the surface text of tokens with single spaces,
// which is how multi-token gazetteer phrases are stored: a slice of
// text when the tokens sit there one space apart, a new string
// otherwise.
func entityText(text string, tokens []textproc.Token) string {
	if len(tokens) == 1 {
		return tokens[0].Text
	}
	if spacedIn(text, tokens) {
		return text[tokens[0].Start:tokens[len(tokens)-1].End]
	}
	n := 0
	for _, t := range tokens {
		n += len(t.Text) + 1
	}
	b := make([]byte, 0, n)
	for i, t := range tokens {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, t.Text...)
	}
	return string(b)
}

// spacedIn reports whether every token is text[Start:End] and each
// starts one space after the previous one ends, so that the span from
// the first to the last is their single-space join.
func spacedIn(text string, tokens []textproc.Token) bool {
	for i, t := range tokens {
		if t.Start < 0 || t.Start > t.End || t.End > len(text) || text[t.Start:t.End] != t.Text {
			return false
		}
		if i > 0 && (t.Start != tokens[i-1].End+1 || text[t.Start-1] != ' ') {
			return false
		}
	}
	return true
}
