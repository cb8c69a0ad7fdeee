package gazetteer

import "strings"

// Roles is the set of gazetteer roles a lower-cased word plays: one
// bit per word list, plus one bit per phrase list with a phrase whose
// first word it is. The recognizer reads a token's roles to decide
// which matchers can fire there; textproc's word table computes them
// once per distinct word.
type Roles uint16

// The roles a word can play.
const (
	KnownOrg          Roles = 1 << iota // full org name ("ibm")
	CompanyCore                         // single-token company core
	OrgSuffix                           // corporate suffix ("inc")
	FirstName                           // given name
	LastName                            // surname
	Month                               // month name
	Weekday                             // weekday name
	Magnitude                           // "million", "billion", ...
	CurrencyWord                        // "dollars", "euros", ...
	StartsDesignation                   // first word of a designation phrase
	StartsPlace                         // first word of a place phrase
	StartsProduct                       // first word of a product phrase
	StartsObject                        // first word of an object phrase
	StartsLengthUnit                    // first word of a length-unit phrase
)

// Magnitudes and CurrencyWords are the recognizer's word lists for
// currency amounts ("5 million dollars").
var Magnitudes = []string{"million", "billion", "trillion", "thousand", "crore", "lakh"}

// CurrencyWords name currencies after an amount ("5 million dollars").
var CurrencyWords = []string{
	"dollars", "dollar", "euros", "euro", "pounds", "rupees", "yen", "usd", "cents",
}

// PhraseWords splits a phrase list entry into the lower-cased words a
// phrase match compares tokens against.
func PhraseWords(phrase string) []string { return strings.Fields(strings.ToLower(phrase)) }

// RolesOf returns the roles of lower, a lower-cased word.
func RolesOf(lower string) Roles { return roles[lower] }

var roles = func() map[string]Roles {
	m := make(map[string]Roles)
	for _, set := range []struct {
		role  Roles
		words []string
	}{
		{KnownOrg, KnownOrgs},
		{CompanyCore, CompanyCores},
		{OrgSuffix, CompanySuffixes},
		{FirstName, FirstNames},
		{LastName, LastNames},
		{Month, Months},
		{Weekday, Weekdays},
		{Magnitude, Magnitudes},
		{CurrencyWord, CurrencyWords},
	} {
		for _, w := range set.words {
			m[strings.ToLower(w)] |= set.role
		}
	}
	for _, set := range []struct {
		role    Roles
		phrases []string
	}{
		{StartsDesignation, Designations},
		{StartsPlace, Places},
		{StartsProduct, Products},
		{StartsObject, Objects},
		{StartsLengthUnit, LengthUnits},
	} {
		for _, p := range set.phrases {
			if words := PhraseWords(p); len(words) > 0 {
				m[words[0]] |= set.role
			}
		}
	}
	return m
}()
