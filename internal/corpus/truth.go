package corpus

import "strings"

// LabeledSnippet is a ground-truth-labeled snippet, used for the pure
// positive pools and the evaluation sets of Section 5.1.
type LabeledSnippet struct {
	Text string
	// Driver is the sales driver the snippet is a trigger event for, or
	// "" for background snippets.
	Driver Driver
	// Company is the subject company for positive snippets.
	Company string
}

// PurePositives emits n "manually labeled" snippets for driver d from the
// held-out template pool: one trigger sentence plus two context sentences
// — a proper three-sentence snippet, like everything else the pipeline
// handles. Callers split the pool into a training portion and an
// evaluation portion, as the paper does ("A portion of the pure positive
// data was used in the classifier training phase, while the remaining
// portion was used ... for evaluation").
func (g *Generator) PurePositives(d Driver, n int) []LabeledSnippet {
	out := make([]LabeledSnippet, 0, n)
	for i := 0; i < n; i++ {
		company := g.company()
		parts := []string{g.text(g.trigger(d, company, true))}
		for k := 0; k < 2; k++ {
			if g.rng.Float64() < 0.5 {
				parts = append(parts, g.text(g.neutral()))
			} else {
				parts = append(parts, g.text(g.noise()))
			}
		}
		g.rng.Shuffle(len(parts), func(a, b int) { parts[a], parts[b] = parts[b], parts[a] })
		out = append(out, LabeledSnippet{
			Text:    strings.Join(parts, " "),
			Driver:  d,
			Company: company,
		})
	}
	return out
}

// BackgroundSnippets emits n random background snippets of three
// sentences each — the negative class ("a collection of ... randomly
// sampled snippets from the Web").
func (g *Generator) BackgroundSnippets(n int) []LabeledSnippet {
	out := make([]LabeledSnippet, 0, n)
	for i := 0; i < n; i++ {
		parts := make([]string, 0, 3)
		seen := map[string]bool{}
		for k := 0; k < 3; k++ {
			var text string
			for tries := 0; tries < 10; tries++ {
				switch {
				case g.rng.Float64() < 0.3:
					text = g.text(g.neutral())
				case g.rng.Float64() < 0.15:
					text = g.text(g.boilerplate())
				default:
					text = g.text(g.noise())
				}
				if !seen[text] {
					break
				}
			}
			seen[text] = true
			parts = append(parts, text)
		}
		out = append(out, LabeledSnippet{Text: strings.Join(parts, " ")})
	}
	return out
}

// MisleadingSnippets emits n near-miss snippets for driver d (biography
// paragraphs for change in management, failed-deal stories for M&A).
// They are negatives that "will deceive the classifier because of its
// features" (Section 5.2) and belong in any honest test set. Half the
// sentences come from the held-out misleading pool, which never occurs in
// the generated web, so the classifier faces novel deception the way it
// would on the real Web.
func (g *Generator) MisleadingSnippets(d Driver, n int) []LabeledSnippet {
	draw := func() string {
		if pool := misleadingHeldoutPool[d]; len(pool) > 0 && g.rng.Float64() < 0.5 {
			return g.text(g.fill(pool[g.rng.Intn(len(pool))], ""))
		}
		return g.text(g.misleading(d))
	}
	out := make([]LabeledSnippet, 0, n)
	for i := 0; i < n; i++ {
		parts := []string{draw()}
		for k, extra := 0, 1+g.rng.Intn(2); k < extra; k++ {
			if g.rng.Float64() < 0.5 {
				parts = append(parts, draw())
			} else {
				parts = append(parts, g.text(g.neutral()))
			}
		}
		out = append(out, LabeledSnippet{Text: strings.Join(parts, " ")})
	}
	return out
}

// ContainsTrigger reports whether the given snippet text (a substring
// window over the document body) contains at least one trigger sentence
// of driver d. This is the ground-truth oracle used to score the
// pipeline's extracted trigger events.
func (doc *Document) ContainsTrigger(snippetText string, d Driver) bool {
	for _, s := range doc.Sentences {
		if s.Driver == d && strings.Contains(snippetText, s.Text) {
			return true
		}
	}
	return false
}

// TriggerCompanies returns the canonical companies of the trigger
// sentences of driver d contained in the snippet text.
func (doc *Document) TriggerCompanies(snippetText string, d Driver) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range doc.Sentences {
		if s.Driver == d && s.Company != "" && strings.Contains(snippetText, s.Text) && !seen[s.Company] {
			seen[s.Company] = true
			out = append(out, s.Company)
		}
	}
	return out
}

// TriggerCount returns the number of trigger sentences for d in the
// document.
func (doc *Document) TriggerCount(d Driver) int {
	n := 0
	for _, s := range doc.Sentences {
		if s.Driver == d {
			n++
		}
	}
	return n
}
