package feature

import (
	"etap/internal/ner"
	"etap/internal/pos"
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
