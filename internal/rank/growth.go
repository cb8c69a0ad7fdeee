package rank

import (
	"sort"
	"strconv"
	"strings"

	"etap/internal/ner"
	"etap/internal/textproc"
)

// The paper's sales-driver-specific alternative to lexicon scoring:
// "for the revenue growth sales driver, trigger events may be ordered
// based on the percentage change in the revenue ... This requires
// extraction of exact revenue growth figures from snippets."

// upWords and downWords signal the direction of a revenue change near a
// percentage figure (compared on stems).
var upWords = map[string]bool{}
var downWords = map[string]bool{}

func init() {
	for _, w := range []string{
		"up", "rose", "rise", "grew", "grow", "growth", "increase",
		"increased", "climbed", "jumped", "expanded", "advanced", "gain",
		"gained", "higher", "beat",
	} {
		upWords[textproc.Stem(w)] = true
	}
	for _, w := range []string{
		"down", "fell", "fall", "decline", "declined", "decrease",
		"decreased", "dropped", "slid", "slide", "shrank", "lower",
		"loss", "losses", "shortfall", "contraction",
	} {
		downWords[textproc.Stem(w)] = true
	}
}

// GrowthFigure extracts the signed revenue-change percentage from a
// snippet: the percentage entity whose surrounding words indicate an
// up or down movement. When several figures appear, the one with the
// largest magnitude wins (the headline number). ok is false when no
// directed percentage is found.
func GrowthFigure(rec *ner.Recognizer, text string) (float64, bool) {
	tokens := textproc.Tokenize(text)
	entities := rec.Recognize(tokens)

	best := 0.0
	found := false
	for _, e := range entities {
		if e.Category != ner.PRCNT {
			continue
		}
		val, err := parsePercent(e.Text)
		if err != nil {
			continue
		}
		dir := direction(tokens, e.TokenStart, e.TokenEnd)
		if dir == 0 {
			continue
		}
		signed := val * float64(dir)
		if !found || abs(signed) > abs(best) {
			best = signed
			found = true
		}
	}
	return best, found
}

// parsePercent extracts the numeric value from a PRCNT entity surface
// ("10 %", "3.5 percent").
func parsePercent(s string) (float64, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return 0, strconv.ErrSyntax
	}
	return strconv.ParseFloat(strings.ReplaceAll(fields[0], ",", ""), 64)
}

// direction scans a window of words around the percentage for movement
// vocabulary: +1 up, -1 down, 0 unknown.
func direction(tokens []textproc.Token, start, end int) int {
	const window = 6
	lo := start - window
	if lo < 0 {
		lo = 0
	}
	hi := end + window
	if hi > len(tokens) {
		hi = len(tokens)
	}
	// Nearest directed word wins; search outward from the entity.
	bestDist := window + 1
	dir := 0
	for i := lo; i < hi; i++ {
		if i >= start && i < end {
			continue
		}
		if !tokens[i].IsWord() {
			continue
		}
		stem := textproc.Stem(tokens[i].Text)
		var d int
		switch {
		case upWords[stem]:
			d = 1
		case downWords[stem]:
			d = -1
		default:
			continue
		}
		dist := i - end
		if i < start {
			dist = start - i
		}
		if dist < bestDist {
			bestDist = dist
			dir = d
		}
	}
	return dir
}

// ByGrowthFigure ranks revenue-growth events by the magnitude of their
// extracted percentage change, falling back to classifier score for
// events without a figure. Each event's Orientation is set to the signed
// figure so callers can display it.
func ByGrowthFigure(events []Event, rec *ner.Recognizer) []Ranked {
	type scored struct {
		ev     Event
		figure float64
		has    bool
	}
	ss := make([]scored, len(events))
	for i, e := range events {
		fig, ok := GrowthFigure(rec, e.Text)
		if ok {
			e.Orientation = fig
		}
		ss[i] = scored{ev: e, figure: fig, has: ok}
	}
	sort.SliceStable(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		if a.has != b.has {
			return a.has // events with figures first
		}
		if a.has {
			if abs(a.figure) != abs(b.figure) {
				return abs(a.figure) > abs(b.figure)
			}
		}
		if a.ev.Score != b.ev.Score {
			return a.ev.Score > b.ev.Score
		}
		return a.ev.SnippetID < b.ev.SnippetID
	})
	out := make([]Ranked, len(ss))
	for i, s := range ss {
		out[i] = Ranked{Event: s.ev, Rank: i + 1}
	}
	return out
}
