// Package kb is the synthetic company knowledge base: a deterministic,
// seeded registry of firmographic attributes — industry, size,
// headquarters, founding year, keywords, inter-company relationships —
// for every company the corpus generator can write about. It plays the
// role DBpedia plays in knowledge-base-enriched B2B lead
// recommendation: ranked trigger events are stamped with their
// subject's attributes, and tenant ideal-customer profiles
// (internal/tenant) filter and re-rank against them.
//
// Generation is bit-deterministic: the same seed produces a
// byte-identical knowledge base (the KB determinism tests serialize two
// generations and compare), and the JSONL persistence round-trips
// exactly, so a restart that reloads the KB from disk enriches leads
// identically to the process that generated it.
package kb

import (
	"math/rand"
	"sort"

	"etap/internal/corpus"
	"etap/internal/gazetteer"
	"etap/internal/rank"
)

// Industries is the seeded industry taxonomy. Every generated company
// belongs to exactly one; tenant ICPs filter against these values
// (matched case-insensitively).
var Industries = []string{
	"enterprise software", "financial services", "telecommunications",
	"healthcare", "retail", "manufacturing", "energy", "logistics",
	"media", "consulting", "semiconductors", "biotechnology",
}

// SizeBuckets are the company-size classes, smallest first. Bucket
// boundaries are applied by SizeBucketFor.
var SizeBuckets = []string{"micro", "small", "medium", "large", "enterprise"}

// sizeBucketCeilings pairs each bucket (by SizeBuckets index) with its
// inclusive employee-count ceiling; the last bucket is unbounded.
var sizeBucketCeilings = []int{10, 100, 1000, 10000}

// SizeBucketFor maps an employee count to its size bucket.
func SizeBucketFor(employees int) string {
	for i, ceil := range sizeBucketCeilings {
		if employees <= ceil {
			return SizeBuckets[i]
		}
	}
	return SizeBuckets[len(SizeBuckets)-1]
}

// Relation kinds: how two companies in the knowledge base relate.
const (
	// RelationPartner marks a commercial partnership (symmetric; each
	// side records its own edge).
	RelationPartner = "partner"
	// RelationParent points from a subsidiary to its parent.
	RelationParent = "parent"
	// RelationSubsidiary points from a parent to one subsidiary.
	RelationSubsidiary = "subsidiary"
)

// Relation is one edge in the inter-company graph.
type Relation struct {
	// Kind is one of RelationPartner, RelationParent, RelationSubsidiary.
	Kind string `json:"kind"`
	// Company is the canonical key of the related company.
	Company string `json:"company"`
}

// Company is one knowledge-base record. Key is the canonical identity
// (rank.Canonical of the display name), so every surface form the
// corpus emits — "Halcyon Systems Inc", "HALCYON" — resolves to the
// same record.
type Company struct {
	// Key is the canonical company identity (rank.Canonical of Name).
	Key string `json:"key"`
	// Name is the display name.
	Name string `json:"name"`
	// Industry is one of Industries.
	Industry string `json:"industry"`
	// Employees is the headcount; SizeBucket classifies it.
	Employees int `json:"employees"`
	// SizeBucket is SizeBucketFor(Employees), stored for direct ICP
	// filtering.
	SizeBucket string `json:"sizeBucket"`
	// HQ is the headquarters location, drawn from the shared gazetteer
	// place inventory.
	HQ string `json:"hq"`
	// Founded is the founding year.
	Founded int `json:"founded"`
	// Keywords describe what the company does; tenant ICP keyword
	// criteria match against them (and against lead text).
	Keywords []string `json:"keywords,omitempty"`
	// Related are the company's edges in the inter-company graph.
	Related []Relation `json:"related,omitempty"`
}

// Config seeds knowledge-base generation.
type Config struct {
	// Seed drives all randomness; equal seeds produce byte-identical
	// knowledge bases.
	Seed int64
}

// KB is an immutable, loaded knowledge base: canonical key → company.
// Safe for concurrent reads; it is never mutated after Generate or
// ReadJSONL return.
type KB struct {
	byKey map[string]*Company
	keys  []string // sorted, for deterministic iteration and output
}

// industryKeywords maps each industry to its fixed keyword stems; every
// company gets its industry's stems plus seeded picks from the shared
// pool below.
var industryKeywords = map[string][]string{
	"enterprise software": {"saas", "platform"},
	"financial services":  {"payments", "banking"},
	"telecommunications":  {"network", "broadband"},
	"healthcare":          {"clinical", "patients"},
	"retail":              {"commerce", "stores"},
	"manufacturing":       {"factory", "supply"},
	"energy":              {"power", "grid"},
	"logistics":           {"freight", "fleet"},
	"media":               {"streaming", "publishing"},
	"consulting":          {"advisory", "strategy"},
	"semiconductors":      {"chips", "fabrication"},
	"biotechnology":       {"genomics", "therapeutics"},
}

// sharedKeywords is the cross-industry pool seeded picks draw from.
var sharedKeywords = []string{
	"cloud", "analytics", "security", "mobile", "automation",
	"outsourcing", "infrastructure", "data", "services", "hardware",
}

// Generate builds the knowledge base over the corpus company inventory:
// one record per canonical identity, attributes drawn from a seeded
// stream in a fixed iteration order, then a deterministic relationship
// pass (partnerships and parent/subsidiary chains).
func Generate(cfg Config) *KB {
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := &KB{byKey: make(map[string]*Company)}
	for _, name := range corpus.CompanyInventory() {
		key := rank.Canonical(name)
		if key == "" {
			continue
		}
		if _, dup := k.byKey[key]; dup {
			continue
		}
		c := &Company{
			Key:      key,
			Name:     name,
			Industry: Industries[rng.Intn(len(Industries))],
			HQ:       gazetteer.Places[rng.Intn(len(gazetteer.Places))],
			Founded:  1950 + rng.Intn(55),
		}
		// Headcount: pick the bucket first (skewed toward the middle),
		// then a size within it, so every bucket is populated.
		bucket := rng.Intn(len(SizeBuckets))
		lo := 1
		if bucket > 0 {
			lo = sizeBucketCeilings[bucket-1] + 1
		}
		hi := 200000
		if bucket < len(sizeBucketCeilings) {
			hi = sizeBucketCeilings[bucket]
		}
		c.Employees = lo + rng.Intn(hi-lo+1)
		c.SizeBucket = SizeBucketFor(c.Employees)
		c.Keywords = append(c.Keywords, industryKeywords[c.Industry]...)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			kw := sharedKeywords[rng.Intn(len(sharedKeywords))]
			if !contains(c.Keywords, kw) {
				c.Keywords = append(c.Keywords, kw)
			}
		}
		sort.Strings(c.Keywords)
		k.byKey[key] = c
		k.keys = append(k.keys, key)
	}
	sort.Strings(k.keys)
	k.linkCompanies(rng)
	return k
}

// linkCompanies runs the deterministic relationship pass over the
// sorted key order: partnerships (symmetric edges) and
// parent/subsidiary chains (the parent is always the larger company).
func (k *KB) linkCompanies(rng *rand.Rand) {
	for _, key := range k.keys {
		c := k.byKey[key]
		if rng.Float64() < 0.35 {
			for n := 1 + rng.Intn(2); n > 0; n-- {
				other := k.byKey[k.keys[rng.Intn(len(k.keys))]]
				if other.Key == c.Key || c.related(RelationPartner, other.Key) {
					continue
				}
				c.Related = append(c.Related, Relation{Kind: RelationPartner, Company: other.Key})
				other.Related = append(other.Related, Relation{Kind: RelationPartner, Company: c.Key})
			}
		}
		if rng.Float64() < 0.15 {
			parent := k.byKey[k.keys[rng.Intn(len(k.keys))]]
			if parent.Key != c.Key && parent.Employees > c.Employees && !c.related(RelationParent, parent.Key) {
				c.Related = append(c.Related, Relation{Kind: RelationParent, Company: parent.Key})
				parent.Related = append(parent.Related, Relation{Kind: RelationSubsidiary, Company: c.Key})
			}
		}
	}
}

// related reports whether the company already has a (kind, key) edge.
func (c *Company) related(kind, key string) bool {
	for _, r := range c.Related {
		if r.Kind == kind && r.Company == key {
			return true
		}
	}
	return false
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// Lookup resolves any surface form of a company name — suffixed,
// cased, punctuated — to its knowledge-base record through canonical
// alias resolution. The returned pointer is shared; callers must not
// mutate it.
func (k *KB) Lookup(company string) (*Company, bool) {
	return k.LookupKey(rank.Canonical(company))
}

// LookupKey is Lookup for a name already in canonical form
// (rank.Canonical), so a caller that holds the key skips
// canonicalizing it again.
func (k *KB) LookupKey(key string) (*Company, bool) {
	c, ok := k.byKey[key]
	return c, ok
}

// Len returns the number of companies in the knowledge base.
func (k *KB) Len() int { return len(k.keys) }

// Companies returns every record in canonical-key order (copies, safe
// to hold).
func (k *KB) Companies() []Company {
	out := make([]Company, 0, len(k.keys))
	for _, key := range k.keys {
		out = append(out, *k.byKey[key])
	}
	return out
}
