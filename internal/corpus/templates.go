package corpus

import (
	"fmt"
	"strings"
)

// Sentence templates. Placeholders are expanded by the generator:
//
//	{ORG1} {ORG2}   company names (ORG2 always differs from ORG1)
//	{PRSN} {PRSN2}  person names
//	{DESIG}         designation
//	{CUR}           currency amount ("$120 million")
//	{PCT}           percentage ("12 percent" / "12%")
//	{PERIOD}        calendar expression ("January 12, 2004", "Friday", "the fourth quarter")
//	{QTR}           quarter expression ("the fourth quarter", "Q3")
//	{YEAR} {YEAR2}  years (YEAR2 > YEAR)
//	{PLC}           place
//	{PROD}          product
//	{CNT}           small count
//	{POSPHRASE}     positive semantic-orientation phrase
//	{NEGPHRASE}     negative semantic-orientation phrase
//
// trainTemplates are the phrasings reachable through smart queries; they
// populate the relevant Web pages. heldoutTemplates are disjoint phrasings
// used only for pure-positive and test snippets, mirroring the "manually
// gathered from news Web sites" data of Section 5.1.
var trainTemplates = map[Driver][]string{
	MergersAcquisitions: {
		"{ORG1} plans to acquire {ORG2} later this year.",
		"{ORG1} announced that it has acquired {ORG2} for {CUR}.",
		"{ORG1} and {ORG2} completed their merger on {PERIOD}.",
		"{ORG1} agreed to buy {ORG2} in a deal worth {CUR}.",
		"The board of {ORG1} approved the acquisition of {ORG2}.",
		"{ORG1} will take over {ORG2} pending regulatory approval.",
		"Shareholders of {ORG2} accepted the takeover offer from {ORG1}.",
		"{ORG1} is in advanced talks to merge with {ORG2}.",
		"{ORG1} acquired {ORG2} to expand its presence in {PLC}.",
		"The acquisition of {ORG2} by {ORG1} was announced on {PERIOD}.",
		"{ORG1} signed a definitive agreement to acquire {ORG2}.",
		"{ORG1} closed its {CUR} purchase of {ORG2} in {QTR}.",
	},
	ChangeInManagement: {
		"{ORG1} named {PRSN} as its new {DESIG}.",
		"{PRSN} was appointed {DESIG} of {ORG1} on {PERIOD}.",
		"{ORG1} announced the appointment of {PRSN} as {DESIG}.",
		"{PRSN} will step down as {DESIG} of {ORG1} next month.",
		"{ORG1} said {PRSN} has resigned as {DESIG}.",
		"{PRSN} joins {ORG1} as {DESIG}, replacing {PRSN2}.",
		"The board of {ORG1} promoted {PRSN} to {DESIG}.",
		"{ORG1} appointed {PRSN} as {DESIG} effective {PERIOD}.",
		"{PRSN} takes over as {DESIG} of {ORG1}, succeeding {PRSN2}.",
		"{ORG1} hired {PRSN} as its new {DESIG} to lead the expansion.",
		"{PRSN2} retired and {ORG1} elevated {PRSN} to {DESIG}.",
		"{ORG1} introduced {PRSN} as the new {DESIG} at a press conference.",
		"The new {DESIG} of {ORG1} outlined a plan to investors on {PERIOD}.",
		"{ORG1} welcomed its new {DESIG}, {PRSN}, this week.",
	},
	RevenueGrowth: {
		"{ORG1} reported a revenue growth of {PCT} in {QTR}.",
		"{ORG1} posted {POSPHRASE} with revenue up {PCT}.",
		"Revenue at {ORG1} rose {PCT} to {CUR}.",
		"{ORG1} recorded {NEGPHRASE}, with sales down {PCT}.",
		"{ORG1} beat estimates with quarterly revenue of {CUR}.",
		"{ORG1} said earnings grew {PCT} over last year.",
		"Profits at {ORG1} increased {PCT} in {QTR}.",
		"{ORG1} reported {NEGPHRASE} as revenue fell {PCT}.",
		"{ORG1} announced record revenue of {CUR} for {YEAR}.",
		"Sales at {ORG1} expanded {PCT}, driven by demand in {PLC}.",
	},
}

var heldoutTemplates = map[Driver][]string{
	MergersAcquisitions: {
		"{ORG1} said on {PERIOD} it would purchase {ORG2} for {CUR} in cash.",
		"The merger between {ORG1} and {ORG2} creates the largest firm in the sector.",
		"{ORG1} swallowed rival {ORG2} after months of negotiations.",
		"Analysts expect the {ORG1} acquisition of {ORG2} to close in {YEAR}.",
		"{ORG1} outbid competitors to buy {ORG2} for {CUR}.",
		"Regulators cleared the merger of {ORG1} and {ORG2} on {PERIOD}.",
		// Hard phrasings: no overt driver verb, so recall on held-out
		// data stays below 1 as in the paper.
		"{ORG2} is now part of {ORG1}, the companies said on {PERIOD}.",
		"The {ORG1} and {ORG2} tie-up reshapes the sector map.",
	},
	ChangeInManagement: {
		"{ORG1} has a new {DESIG} as {PRSN} takes charge on {PERIOD}.",
		"Veteran executive {PRSN} was tapped to lead {ORG1} as {DESIG}.",
		"{PRSN2} hands the {DESIG} role at {ORG1} to {PRSN}.",
		"{ORG1} installed {PRSN} as {DESIG} after a lengthy search.",
		"{PRSN} becomes {DESIG} of {ORG1}, the company said on {PERIOD}.",
		// Hard phrasings (no appointment verb).
		"{PRSN} is taking the reins at {ORG1} next week.",
		"The corner office at {ORG1} belongs to {PRSN} now.",
	},
	RevenueGrowth: {
		"Quarterly sales at {ORG1} climbed {PCT} in a {POSPHRASE}.",
		"{ORG1} turned in a {POSPHRASE} as revenue reached {CUR}.",
		"Revenue jumped {PCT} at {ORG1}, topping forecasts.",
		"{ORG1} suffered {NEGPHRASE} with revenue sliding {PCT}.",
		"Full-year revenue at {ORG1} advanced {PCT} to {CUR}.",
		// Hard phrasings.
		"The top line at {ORG1} moved {PCT} higher, filings show.",
		"{ORG1} took in {CUR} over the period, more than forecast.",
	},
}

// misleadingTemplates generate sentences that look like a driver's
// trigger events but are not ("a recurring example is the biographical
// description of a person", Section 5.2). They appear on relevant pages
// and on hard-negative pages.
var misleadingTemplates = map[Driver][]string{
	ChangeInManagement: {
		"{PRSN} was the {DESIG} of {ORG1} from {YEAR} to {YEAR2}.",
		"Before joining {ORG1}, {PRSN} served as {DESIG} at {ORG2} for {CNT} years.",
		"{PRSN} began his career at {ORG1} in {YEAR}.",
		"{PRSN} holds a degree from {PLC} and once worked as {DESIG} at {ORG2}.",
		"As {DESIG} of {ORG1} during the {YEAR} downturn, {PRSN} cut costs.",
		"{PRSN} previously spent {CNT} years as {DESIG} of {ORG2}.",
	},
	MergersAcquisitions: {
		"{ORG1} provides advisory services for mergers and acquisitions.",
		"The conference in {PLC} covered trends in mergers and acquisitions.",
		"A history of failed mergers has made investors in {ORG1} cautious.",
		"{ORG1} ruled out any acquisition this year, citing market conditions.",
		"The merger rumors about {ORG1} and {ORG2} were denied on {PERIOD}.",
		// Deceptive near-misses sharing trigger vocabulary — the M&A
		// analogue of the biography outliers.
		"{ORG1} denied reports that it plans to acquire {ORG2}.",
		"{ORG1} and {ORG2} announced a joint marketing agreement.",
		"{ORG1} acquired a minority stake in {ORG2} back in {YEAR}.",
		"{ORG1} completed its separation from {ORG2} on {PERIOD}.",
	},
	RevenueGrowth: {
		"{ORG1} declined to forecast revenue for {YEAR}.",
		"Analysts debated whether revenue growth at {ORG1} is sustainable.",
		"The {ORG1} annual report explains how revenue is recognized.",
		"{ORG1} publishes its revenue figures every {QTR}.",
	},
}

// misleadingHeldout are near-miss phrasings that never appear in the
// generated web — the classifier cannot memorize them as negatives, just
// as it could not memorize the real Web's endless variety. They are used
// only for evaluation sets, making measured precision reflect
// generalization rather than lookup.
var misleadingHeldout = map[Driver][]string{
	MergersAcquisitions: {
		"{ORG1} explored acquiring {ORG2} but talks collapsed in {YEAR}.",
		"{ORG1} once tried to merge with {ORG2}, a deal regulators blocked.",
		"A proposed merger of {ORG1} and {ORG2} fell apart on {PERIOD}.",
		"{ORG1} sold its stake in {ORG2} for {CUR} last decade.",
		"{ORG1} and {ORG2} compete fiercely in the {PLC} market.",
	},
	ChangeInManagement: {
		"{PRSN} reflected on two decades as {DESIG} of {ORG1}.",
		"An interview with {PRSN}, longtime {DESIG} of {ORG1}, ran on {PERIOD}.",
		"{PRSN} of {ORG1} spoke about life as a {DESIG} in {PLC}.",
		"The late {PRSN} led {ORG1} as {DESIG} through the {YEAR} crisis.",
		"{PRSN} remains {DESIG} of {ORG1} despite the rumors.",
	},
	RevenueGrowth: {
		"{ORG1} will report revenue for {QTR} on {PERIOD}.",
		"Forecasting revenue at {ORG1} has become harder, analysts said.",
		"The {ORG1} finance team reconciles revenue figures every {QTR}.",
	},
}

// neutralBusinessTemplates keep organizations, products and places present
// in the background class so that entity presence alone is not trivially
// discriminative.
var neutralBusinessTemplates = []string{
	"{ORG1} hosts its annual developer conference in {PLC}.",
	"{ORG1} shipped {PROD} to enterprise customers in {PLC}.",
	"Employees at {ORG1} volunteered at the food bank on {PERIOD}.",
	"The {ORG1} campus spans {CNT} acres outside {PLC}.",
	"{ORG1} sponsors the marathon held in {PLC} every {YEAR}.",
	"A spokesperson for {ORG1} declined to comment on the report.",
	"{ORG1} opened a customer support center in {PLC}.",
	"The {PROD} user group meets in {PLC} on {PERIOD}.",
	"{ORG1} celebrated its anniversary with events across {PLC}.",
	"Engineers at {ORG1} presented a paper about {PROD}.",
}

// noiseTemplates are generic non-business sentences. The inventory is
// deliberately wide and heavily parameterized: on the real Web the noise
// vocabulary is effectively unbounded, so no single noise sentence should
// recur often enough to accumulate class weight.
var noiseTemplates = []string{
	"The weather in {PLC} remained pleasant throughout the week.",
	"The local team won the championship game on {PERIOD}.",
	"A new restaurant opened downtown near the central station of {PLC}.",
	"Traffic on the highway near {PLC} was heavy during the morning commute.",
	"Scientists discovered a new species of frog in the rainforest.",
	"The museum unveiled an exhibition of modern art in {PLC}.",
	"Volunteers planted {CNT} trees along the river bank on {PERIOD}.",
	"The festival drew thousands of visitors to {PLC} in {YEAR}.",
	"Residents of {PLC} gathered for the annual street fair near the park.",
	"The library in {PLC} extended its opening hours for the summer.",
	"A documentary about ocean life premiered at the {PLC} film festival.",
	"The city council of {PLC} discussed plans for a new bicycle lane.",
	"Farmers near {PLC} reported a good harvest after the early rains.",
	"The orchestra performed a program of classical favorites on {PERIOD}.",
	"Hikers enjoyed clear views from the summit trail on {PERIOD}.",
	"The school in {PLC} organized a science fair for {CNT} students.",
	"A vintage car rally passed through {PLC} over the weekend.",
	"The bakery on the corner introduced a seasonal menu on {PERIOD}.",
	"Local artists painted a mural near the harbor of {PLC}.",
	"The zoo in {PLC} welcomed a newborn elephant calf this spring.",
	"Rainfall in {PLC} measured {CNT} millimeters during {PERIOD}.",
	"A marathon through {PLC} attracted {CNT} runners in {YEAR}.",
	"The theater company staged a comedy in {PLC} on {PERIOD}.",
	"Birdwatchers counted {CNT} species at the wetland near {PLC}.",
	"The university in {PLC} hosted a lecture series during {PERIOD}.",
	"Gardeners in {PLC} prepared flower beds ahead of the spring.",
	"A cooking class in {PLC} filled all {CNT} seats within hours.",
	"The ferry between the islands resumed service on {PERIOD}.",
	"Cyclists toured the coastal road near {PLC} over {PERIOD}.",
	"The chess club of {PLC} held its open tournament in {YEAR}.",
	"Astronomy fans in {PLC} watched the meteor shower on {PERIOD}.",
	"The aquarium added a reef tank with {CNT} species of fish.",
	"A quilt exhibition opened at the community hall in {PLC}.",
	"Students from {PLC} won the regional debate held on {PERIOD}.",
	"The botanical garden in {PLC} catalogued {CNT} orchid varieties.",
	"A food truck festival took over the square in {PLC} on {PERIOD}.",
	"The swimming pool in {PLC} reopened after renovation in {YEAR}.",
	"Beekeepers near {PLC} harvested a record amount of honey.",
	"The choir from {PLC} toured three towns during {PERIOD}.",
	"A pottery workshop in {PLC} drew {CNT} participants on {PERIOD}.",
}

// boilerplateTemplates model page chrome — the text around articles that
// the snippet filters must learn to reject (Figure 6's "noise in the
// result" sentences).
var boilerplateTemplates = []string{
	"Click here to subscribe to our newsletter.",
	"Sign up for daily email alerts and breaking news.",
	"Copyright {YEAR} by the publisher and all rights reserved.",
	"Related articles and archived stories appear below.",
	"Use of this site constitutes acceptance of our terms.",
	"Advertise with us to reach business readers worldwide.",
	"Read the full story after a free registration.",
	"Comments are moderated and may take time to appear.",
	"Share this article by email or print it for later.",
	"Our markets page updates every trading day at 9 am.",
}

// positivePhrases and negativePhrases are the semantic-orientation
// vocabulary embedded in revenue-growth sentences; the ranking component's
// lexicon (internal/rank) mirrors them.
var positivePhrases = []string{
	"significant growth", "solid quarter", "strong performance",
	"record results", "robust expansion", "impressive gains",
	"stellar quarter", "healthy margins",
}

var negativePhrases = []string{
	"severe losses", "sharp decline", "worst losses",
	"steep drop", "disappointing results", "weak demand",
	"heavy shortfall", "painful contraction",
}

// PositivePhrases returns a copy of the positive orientation phrases used
// by the generator (exported for the ranking lexicon and tests).
func PositivePhrases() []string { return append([]string(nil), positivePhrases...) }

// NegativePhrases returns a copy of the negative orientation phrases.
func NegativePhrases() []string { return append([]string(nil), negativePhrases...) }

// slot is one placeholder of a parsed template; slotLiteral marks a
// literal run of text.
type slot uint8

const (
	slotLiteral slot = iota
	slotORG1
	slotORG2
	slotPRSN
	slotPRSN2
	slotDESIG
	slotCUR
	slotPCT
	slotPERIOD
	slotQTR
	slotYEAR
	slotYEAR2
	slotPLC
	slotPROD
	slotCNT
	slotPOSPHRASE
	slotNEGPHRASE
)

// slotNames maps each placeholder listed at the top of this file,
// without its braces, to its slot.
var slotNames = map[string]slot{
	"ORG1": slotORG1, "ORG2": slotORG2, "PRSN": slotPRSN, "PRSN2": slotPRSN2,
	"DESIG": slotDESIG, "CUR": slotCUR, "PCT": slotPCT, "PERIOD": slotPERIOD,
	"QTR": slotQTR, "YEAR": slotYEAR, "YEAR2": slotYEAR2, "PLC": slotPLC,
	"PROD": slotPROD, "CNT": slotCNT, "POSPHRASE": slotPOSPHRASE, "NEGPHRASE": slotNEGPHRASE,
}

// piece is one literal run or one placeholder of a parsed template.
type piece struct {
	slot slot
	lit  string // the text of a slotLiteral piece
}

// template is a sentence template split into pieces, so a sentence is
// written in one pass that formats only the placeholders it contains.
type template []piece

// parseTemplate splits s into literal and placeholder pieces. An
// unknown placeholder, an unterminated "{" or a stray "}" is an error.
func parseTemplate(s string) (template, error) {
	var t template
	for rest := s; rest != ""; {
		i := strings.IndexAny(rest, "{}")
		if i < 0 {
			t = append(t, piece{lit: rest})
			break
		}
		if rest[i] == '}' {
			return nil, fmt.Errorf("corpus: stray '}' in template %q", s)
		}
		if i > 0 {
			t = append(t, piece{lit: rest[:i]})
		}
		n := strings.IndexByte(rest[i:], '}')
		if n < 0 {
			return nil, fmt.Errorf("corpus: unterminated placeholder in template %q", s)
		}
		name := rest[i+1 : i+n]
		sl, ok := slotNames[name]
		if !ok {
			return nil, fmt.Errorf("corpus: unknown placeholder {%s} in template %q", name, s)
		}
		t = append(t, piece{slot: sl})
		rest = rest[i+n+1:]
	}
	return t, nil
}

// The parsed pools, built once at package init; the generator draws
// from these by the same index it would draw from the string pools. A
// template that does not parse panics here, before any world exists.
var (
	trainPool             = mustParsePools(trainTemplates)
	heldoutPool           = mustParsePools(heldoutTemplates)
	misleadingPool        = mustParsePools(misleadingTemplates)
	misleadingHeldoutPool = mustParsePools(misleadingHeldout)
	neutralPool           = mustParseAll(neutralBusinessTemplates)
	noisePool             = mustParseAll(noiseTemplates)
	boilerplatePool       = mustParseAll(boilerplateTemplates)
)

// mustParsePools parses per-driver pools, walking the ordered Drivers
// slice; a pool keyed by any other driver panics rather than vanish.
func mustParsePools(pools map[Driver][]string) map[Driver][]template {
	out := make(map[Driver][]template, len(pools))
	for _, d := range Drivers {
		if tpls, ok := pools[d]; ok {
			out[d] = mustParseAll(tpls)
		}
	}
	if len(out) != len(pools) {
		panic("corpus: a template pool is keyed by a driver outside Drivers")
	}
	return out
}

func mustParseAll(tpls []string) []template {
	out := make([]template, len(tpls))
	for i, s := range tpls {
		t, err := parseTemplate(s)
		if err != nil {
			panic(err)
		}
		out[i] = t
	}
	return out
}
