// Package rank implements ETAP's snippet ranking component (Section 4):
// ordering trigger events by classifier confidence, sales-driver-specific
// scoring via a semantic-orientation lexicon (with PMI-IR induction as the
// automated alternative [14]), and the company-level mean-reciprocal-rank
// aggregate of Equation 2. It also implements the two future-work
// extensions the paper names: associating a time period with each trigger
// event, and resolving company-name variations.
package rank

import (
	"sort"
	"strings"
	"time"

	"etap/internal/obs"
)

// Stage instrumentation: ranking reports into the shared per-stage
// families of the process-wide registry, alongside snippet/annotate/
// classify from the extraction path.
var (
	rankDur   = obs.StageDuration(nil, "rank")
	rankItems = obs.StageItems(nil, "rank")
)

// Event is one extracted trigger event: a snippet, the sales driver it
// fired for, the classifier's confidence, and provenance.
type Event struct {
	SnippetID string
	Text      string
	Driver    string
	Company   string
	// Score is the classifier's positive-class probability ("The
	// simplest scoring function is the posterior probability of the
	// sales-driver class").
	Score float64
	// Orientation is the semantic-orientation score, set by an
	// orientation Lexicon when used.
	Orientation float64
}

// Ranked is an event with its assigned 1-based rank.
type Ranked struct {
	Event
	Rank int
}

// ByScore sorts events by descending classifier score (ties broken by
// snippet id for determinism) and assigns ranks — the Figure 7 view.
func ByScore(events []Event) []Ranked {
	return rankBy(events, func(a, b Event) bool { return CompareScore(&a, &b) < 0 })
}

// CompareScore orders events the way ByScore ranks them: it is negative
// when a ranks ahead of b (higher score, or an equal score and a
// smaller snippet ID), positive when b does, and 0 only for equal
// scores and snippet IDs.
func CompareScore(a, b *Event) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return strings.Compare(a.SnippetID, b.SnippetID)
}

// ByOrientation sorts events by descending absolute orientation — the
// strongest-sense snippets first, as in Figure 8 — and assigns ranks.
func ByOrientation(events []Event) []Ranked {
	return rankBy(events, func(a, b Event) bool {
		aa, ab := abs(a.Orientation), abs(b.Orientation)
		if aa != ab {
			return aa > ab
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.SnippetID < b.SnippetID
	})
}

func rankBy(events []Event, less func(a, b Event) bool) []Ranked {
	//etaplint:ignore determinism -- metrics-only timing: the timestamp feeds the latency histogram, never a ranking
	defer rankDur.ObserveSince(time.Now())
	rankItems.Add(uint64(len(events)))
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
	out := make([]Ranked, len(sorted))
	for i, e := range sorted {
		out[i] = Ranked{Event: e, Rank: i + 1}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// CompanyScore is the aggregate of Equation 2 for one company.
type CompanyScore struct {
	Company string
	// MRR is the mean-reciprocal-rank aggregate over all the company's
	// trigger events across all sales drivers.
	MRR float64
	// Events is Σ_i |TE(c, sd_i)|.
	Events int
}

// CompanyMRR computes MRR(c) (Equation 2) from per-driver rankings:
//
//	MRR(c) = Σ_i Σ_j 1/rank(te_j(c, sd_i))  /  Σ_i |TE(c, sd_i)|
//
// The input is the concatenation of the per-driver ranked lists; events
// without a company are skipped. Company identity uses canonical alias
// resolution (see Canonical). Results are sorted by descending MRR, ties
// by company name.
func CompanyMRR(ranked []Ranked) []CompanyScore {
	var acc MRRAccumulator
	for _, r := range ranked {
		acc.Add(r.Company, Canonical(r.Company), r.Rank)
	}
	return acc.Scores()
}

// MRRAccumulator is CompanyMRR fed one ranked event at a time, for
// callers that walk their per-driver rankings in place and already
// hold each company's canonical key. The zero value is ready to use.
type MRRAccumulator struct {
	byCompany map[string]*mrrAcc
}

type mrrAcc struct {
	sum   float64
	count int
	name  string // first surface form seen, for display
}

// Add counts one trigger event of company, whose canonical key
// (Canonical(company)) is key, at 1-based rank pos. Events without a
// company or a rank are skipped. Reciprocal ranks are summed in the
// order Add is called, so equal call sequences give equal bits.
func (m *MRRAccumulator) Add(company, key string, pos int) {
	if company == "" || pos <= 0 {
		return
	}
	if m.byCompany == nil {
		m.byCompany = map[string]*mrrAcc{}
	}
	a, ok := m.byCompany[key]
	if !ok {
		a = &mrrAcc{name: company}
		m.byCompany[key] = a
	}
	a.sum += 1 / float64(pos)
	a.count++
}

// Scores returns every company's MRR, sorted by descending MRR, ties
// by company name.
func (m *MRRAccumulator) Scores() []CompanyScore {
	out := make([]CompanyScore, 0, len(m.byCompany))
	for _, a := range m.byCompany {
		out = append(out, CompanyScore{
			Company: a.name,
			MRR:     a.sum / float64(a.count),
			Events:  a.count,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MRR != out[j].MRR {
			return out[i].MRR > out[j].MRR
		}
		return out[i].Company < out[j].Company
	})
	return out
}

// --- company alias resolution (future work: "we need to know all the
// variations to the reference of the company") -------------------------

// corporateSuffixes are stripped when canonicalizing a company name.
var corporateSuffixes = map[string]bool{
	"inc": true, "corp": true, "ltd": true, "llc": true, "plc": true,
	"group": true, "holdings": true, "co": true, "company": true,
	"incorporated": true, "corporation": true, "limited": true,
	"systems": true, "technologies": true, "industries": true,
	"partners": true, "solutions": true, "networks": true,
	"capital": true, "labs": true, "software": true, "enterprises": true,
}

// Canonical normalizes a company reference: lower-case, punctuation
// stripped, trailing corporate suffixes removed. "Halcyon Systems Inc",
// "Halcyon Systems" and "HALCYON" all canonicalize to "halcyon".
func Canonical(name string) string {
	fields := strings.Fields(strings.ToLower(strings.Map(dropPunct, name)))
	// Strip suffix tokens from the right, but never empty the name.
	for len(fields) > 1 && corporateSuffixes[fields[len(fields)-1]] {
		fields = fields[:len(fields)-1]
	}
	return strings.Join(fields, " ")
}

func dropPunct(r rune) rune {
	switch r {
	case '.', ',', '\'', '"', '(', ')':
		return -1
	}
	return r
}

// SameCompany reports whether two references resolve to the same company.
func SameCompany(a, b string) bool { return Canonical(a) == Canonical(b) }
