package feature

import (
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
	return AppendFeatures(make([]string, 0, len(units)), units, p)
}

// AppendFeatures appends the features Extract returns to dst and
// returns the extended slice, so a caller that reuses one buffer
// abstracts without allocating for the list.
func AppendFeatures(dst []string, units []annotate.Unit, p Policy) []string {
	// pa holds the indices in dst of the PA features emitted so far —
	// at most one per category, so a scan beats a map.
	var paBuf [16]int
	pa := paBuf[:0]
	addPA := func(name string) {
		for _, k := range pa {
			if dst[k] == name {
				return
			}
		}
		pa = append(pa, len(dst))
		dst = append(dst, name)
	}
	for _, u := range units {
		c := POSCategory(u.POS)
		if u.IsEntity() {
			c = EntityCategory(u.Entity)
		}
		rep, ok := p[c]
		if !ok {
			continue
		}
		switch {
		case rep == RepPA:
			addPA(paName(c))
		case rep == RepIV && u.IsEntity():
			dst = append(dst, string(u.Entity)+"="+u.Lower())
		case rep == RepIV:
			if lx := textproc.Normalize(u.Text); !lx.Stop {
				dst = append(dst, "w="+lx.Stem)
			}
		}
	}
	return dst
}

// paNames holds the presence-absence feature of every category in
// AllCategories, the categories the built-in policies name, built once:
// "ENT=ORG", "POS=nn".
var paNames = func() map[Category]string {
	m := make(map[Category]string)
	for _, c := range AllCategories() {
		m[c] = paFeature(c)
	}
	return m
}()

// paName returns the presence-absence feature of category c.
func paName(c Category) string {
	if name, ok := paNames[c]; ok {
		return name
	}
	return paFeature(c)
}

func paFeature(c Category) string {
	if c.Entity != "" {
		return "ENT=" + string(c.Entity)
	}
	return "POS=" + string(c.POS)
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
