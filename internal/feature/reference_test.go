package feature

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"etap/internal/annotate"
	"etap/internal/ner"
	"etap/internal/pos"
	"etap/internal/textproc"
)

// refVectorize is the original map-and-sort.Slice Vectorize, kept
// verbatim as the reference oracle the run-counting Vectorize must
// match. Keep it simple and slow; do not optimize it.
func refVectorize(v *Vocab, feats []string, grow bool) Vector {
	counts := make(map[int]float64, len(feats))
	for _, f := range feats {
		var id int
		if grow {
			id = v.ID(f)
		} else {
			var ok bool
			id, ok = v.Lookup(f)
			if !ok {
				continue
			}
		}
		counts[id]++
	}
	out := make(Vector, 0, len(counts))
	for id, c := range counts {
		out = append(out, Term{ID: id, W: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestVectorizeMatchesReference compares Vectorize with the reference
// on random feature lists with repeats, in both modes: the vectors
// must be equal, and growing must intern the same ids in the same order.
func TestVectorizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seed := []string{"w=acquir", "ENT=ORG", "w=ceo", "POS=nn", "ENT=CURRENCY"}
	got, want := VocabFromNames(seed), VocabFromNames(seed)
	for n := 0; n < 2000; n++ {
		feats := make([]string, rng.Intn(40))
		for i := range feats {
			feats[i] = "w=f" + strconv.Itoa(rng.Intn(60))
			if rng.Intn(5) == 0 {
				feats[i] = seed[rng.Intn(len(seed))]
			}
		}
		grow := rng.Intn(2) == 0
		g, w := Vectorize(got, feats, grow), refVectorize(want, feats, grow)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("Vectorize(%q, grow=%v)\n got  %v\n want %v", feats, grow, g, w)
		}
	}
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("grown vocabularies differ:\n got  %q\n want %q", got.Names(), want.Names())
	}
}

// refExtract is the name-based abstraction the feature table replaced,
// kept as the reference the id path must match: one feature name per
// RepIV instance ("w=<stem>", "<CAT>=<lower>", stop words dropped) and
// one "ENT=<CAT>" or "POS=<tag>" per RepPA category present.
func refExtract(units []annotate.Unit, p Policy) []string {
	var out []string
	seenPA := map[string]bool{}
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
			name := "POS=" + string(c.POS)
			if c.Entity != "" {
				name = "ENT=" + string(c.Entity)
			}
			if !seenPA[name] {
				seenPA[name] = true
				out = append(out, name)
			}
		case rep == RepIV && u.IsEntity():
			out = append(out, string(u.Entity)+"="+strings.ToLower(u.Text))
		case rep == RepIV:
			if lower := strings.ToLower(u.Text); !textproc.IsStopword(lower) {
				out = append(out, "w="+textproc.Stem(lower))
			}
		}
	}
	return out
}

// randomUnits draws a snippet of annotated units: words in mixed case,
// stop words among them, under the coarse POS tags and one tag no
// policy names, and entities of every category.
func randomUnits(rng *rand.Rand) []annotate.Unit {
	words := []string{"Acquired", "acquires", "acquiring", "the", "The", "and", "CEO", "ceo",
		"growth", "Growing", "quickly", "new", "New", "it", "record", "revenue", "was", "of"}
	ents := []string{"IBM", "ibm", "Oracle Corp", "$5 million", "Daksh", "chief executive", "2004"}
	tags := []pos.Tag{pos.TagVB, pos.TagRB, pos.TagNN, pos.TagNP, pos.TagJJ, pos.TagIN,
		pos.TagDT, pos.TagCC, pos.TagPRP, "xx"}
	units := make([]annotate.Unit, rng.Intn(30))
	for i := range units {
		switch {
		case rng.Intn(4) == 0:
			units[i] = annotate.Unit{Text: ents[rng.Intn(len(ents))], Entity: ner.Categories[rng.Intn(len(ner.Categories))]}
		case rng.Intn(5) == 0:
			units[i] = annotate.Unit{Text: "w" + strconv.Itoa(rng.Intn(500)), POS: tags[rng.Intn(len(tags))]}
		default:
			units[i] = annotate.Unit{Text: words[rng.Intn(len(words))], POS: tags[rng.Intn(len(tags))]}
		}
	}
	return units
}

// randomPolicy is one of the default policy, bag of words, or a mix
// that maps each category to PA, IV, drop or nothing at random.
func randomPolicy(rng *rand.Rand) Policy {
	switch rng.Intn(3) {
	case 0:
		return DefaultPolicy()
	case 1:
		return BagOfWordsPolicy()
	}
	p := Policy{}
	for _, c := range AllCategories() {
		if r := rng.Intn(4); r < 3 {
			p[c] = Representation(r)
		}
	}
	return p
}

// TestIDPathMatchesNamePath abstracts random snippets under random
// policies through the table and through refExtract. Training's
// interning must name every feature as the name path does, in order,
// and select the same vocabulary; scoring's lookups must then give the
// vectors the name path gives through Vectorize, term for term and
// weight for weight, without growing the table.
func TestIDPathMatchesNamePath(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		policy := randomPolicy(rng)
		tab := NewTable()
		var idLists [][]int32
		var nameLists [][]string
		var labels []bool
		for n := 0; n < 60; n++ {
			units := randomUnits(rng)
			ids := tab.AppendInterned(nil, units, policy)
			want := refExtract(units, policy)
			got := make([]string, len(ids))
			for i, id := range ids {
				got[i] = tab.Name(id)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: interned features %q, names %q", seed, got, want)
			}
			idLists, nameLists = append(idLists, ids), append(nameLists, want)
			labels = append(labels, rng.Intn(2) == 0)
		}

		vocabs := map[string][2]*Vocab{
			"all":  {tab.Vocab(idLists), NewVocab()},
			"topk": {VocabFromNames(tab.TopK(idLists, labels, InfoGain, 25)), VocabFromNames(refTopK(nameLists, labels, InfoGain, 25))},
		}
		for _, m := range []SelectionMeasure{ChiSquare, InfoGain, MutualInfo} {
			if got, want := tab.Rank(idLists, labels, m), refRank(nameLists, labels, m); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s ranks\n%v through ids,\n%v through names", seed, m, got, want)
			}
		}
		for _, names := range nameLists {
			Vectorize(vocabs["all"][1], names, true)
		}
		for kind, v := range vocabs {
			if !slices.Equal(v[0].Names(), v[1].Names()) {
				t.Fatalf("seed %d: %s vocabulary %q through ids, %q through names", seed, kind, v[0].Names(), v[1].Names())
			}
			proj := tab.Project(v[0])
			size := tab.Len()
			var buf []int
			for n := 0; n < 60; n++ {
				units := randomUnits(rng)
				got := proj.AppendVector(nil, &buf, tab.AppendIDs(nil, units, policy))
				want := Vectorize(v[1], refExtract(units, policy), false)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %s: id path vector %v, name path %v", seed, kind, got, want)
				}
			}
			if tab.Len() != size {
				t.Fatalf("seed %d: scoring grew the table from %d to %d", seed, size, tab.Len())
			}
		}
	}
}

// TestTableInternNameRoundTrip checks that every name Name writes
// interns back to its id, and that a name abstraction never emits gets
// an id of its own that names itself.
func TestTableInternNameRoundTrip(t *testing.T) {
	tab := NewTable()
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 50; n++ {
		tab.AppendInterned(nil, randomUnits(rng), BagOfWordsPolicy())
		tab.AppendInterned(nil, randomUnits(rng), randomPolicy(rng))
	}
	size := tab.Len()
	for id := int32(0); id < int32(size); id++ {
		if got := tab.Intern(tab.Name(id)); got != id {
			t.Fatalf("Intern(%q) = %d, want %d", tab.Name(id), got, id)
		}
	}
	if tab.Len() != size {
		t.Fatalf("interning known names grew the table from %d to %d", size, tab.Len())
	}
	for _, name := range []string{"plain", "=x", "w=", "ENT=x=y"} {
		if got := tab.Name(tab.Intern(name)); got != name {
			t.Errorf("Name(Intern(%q)) = %q", name, got)
		}
	}
}

// refRank is the name-based feature ranking Table.Rank replaced, kept
// as its reference: per-label document frequencies counted in maps.
func refRank(examples [][]string, labels []bool, m SelectionMeasure) []Scored {
	df := map[string][2]float64{}
	var n [2]float64
	for i, feats := range examples {
		li := labelIndex(labels[i])
		n[li]++
		seen := map[string]bool{}
		for _, f := range feats {
			if !seen[f] {
				seen[f] = true
				c := df[f]
				c[li]++
				df[f] = c
			}
		}
	}
	total := n[0] + n[1]
	if total == 0 {
		return nil
	}
	var out []Scored
	for f, c := range df {
		a, b := c[0], c[1]
		c2, d := n[0]-a, n[1]-b
		var score float64
		switch m {
		case ChiSquare:
			score = chi2(a, b, c2, d)
		case InfoGain:
			score = infoGain(a, b, c2, d)
		case MutualInfo:
			pxy := (b + 1) / (total + 2)
			px := (a + b + 1) / (total + 2)
			py := (n[1] + 1) / (total + 2)
			score = math.Log2(pxy / (px * py))
		}
		out = append(out, Scored{Feature: f, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Feature < out[j].Feature
	})
	return out
}

// refTopK is the names of refRank's k best features, sorted.
func refTopK(examples [][]string, labels []bool, m SelectionMeasure, k int) []string {
	var names []string
	for _, s := range refRank(examples, labels, m) {
		if len(names) < k {
			names = append(names, s.Feature)
		}
	}
	sort.Strings(names)
	return names
}
