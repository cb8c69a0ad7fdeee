package feature

import (
	"strings"

	"etap/internal/annotate"
	"etap/internal/ner"
	"etap/internal/pos"
	"etap/internal/textproc"
)

// Policy maps each abstraction category to its representation. Categories
// absent from the policy are dropped.
type Policy map[Category]Representation

// DefaultPolicy is the abstraction the paper settles on (Section 3.2.2):
// PA for every entity category, IV for the content POS classes (vb, rb,
// nn, np, jj); closed-class POS are dropped (their words are stop words).
func DefaultPolicy() Policy {
	p := Policy{}
	for _, e := range ner.Categories {
		p[EntityCategory(e)] = RepPA
	}
	for _, t := range []pos.Tag{pos.TagVB, pos.TagRB, pos.TagNN, pos.TagNP, pos.TagJJ} {
		p[POSCategory(t)] = RepIV
	}
	return p
}

// BagOfWordsPolicy is the no-abstraction baseline used by the ablation
// benches: every category, entity or POS, keeps its instances.
func BagOfWordsPolicy() Policy {
	p := Policy{}
	for _, c := range AllCategories() {
		p[c] = RepIV
	}
	return p
}

// Extract renders an annotated snippet as a list of feature strings under
// the policy.
//
//   - RepPA categories contribute a single "ENT=<CAT>" feature when at
//     least one instance is present (binary, deduplicated).
//   - RepIV categories contribute one feature per instance occurrence:
//     for POS categories the stemmed word ("w=acquir"), for entity
//     categories the lower-cased surface ("ORG=ibm").
//   - Stop words never become IV features.
func Extract(units []annotate.Unit, p Policy) []string {
	out := make([]string, 0, len(units))
	// pa holds the indices in out of the PA features emitted so far —
	// at most one per category, so a scan beats a map.
	var paBuf [16]int
	pa := paBuf[:0]
	addPA := func(prefix, name string) {
		for _, k := range pa {
			if rest, ok := strings.CutPrefix(out[k], prefix); ok && rest == name {
				return
			}
		}
		pa = append(pa, len(out))
		out = append(out, prefix+name)
	}
	for _, u := range units {
		if u.IsEntity() {
			rep, ok := p[EntityCategory(u.Entity)]
			if !ok {
				continue
			}
			switch rep {
			case RepPA:
				addPA("ENT=", string(u.Entity))
			case RepIV:
				out = append(out, string(u.Entity)+"="+u.Lower())
			}
			continue
		}
		rep, ok := p[POSCategory(u.POS)]
		if !ok {
			continue
		}
		switch rep {
		case RepPA:
			addPA("POS=", string(u.POS))
		case RepIV:
			if lx := textproc.Normalize(u.Text); !lx.Stop {
				out = append(out, "w="+lx.Stem)
			}
		}
	}
	return out
}

// ExtractText annotates text with the given annotator and extracts
// features in one step.
func ExtractText(a *annotate.Annotator, text string, p Policy) []string {
	return Extract(a.Annotate(text), p)
}

// MarshalMap renders the policy as a plain string map (category name →
// representation name) for serialization.
func (p Policy) MarshalMap() map[string]string {
	out := make(map[string]string, len(p))
	for c, r := range p {
		out[c.String()] = r.String()
	}
	return out
}

// PolicyFromMap inverts MarshalMap. Unknown representation names map to
// RepDrop.
func PolicyFromMap(m map[string]string) Policy {
	p := make(Policy, len(m))
	for cat, rep := range m {
		c := ParseCategory(cat)
		switch rep {
		case "PA":
			p[c] = RepPA
		case "IV":
			p[c] = RepIV
		default:
			p[c] = RepDrop
		}
	}
	return p
}
