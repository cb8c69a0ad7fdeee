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
		compiled := tab.Compile(policy)
		var idLists [][]int32
		var nameLists [][]string
		var labels []bool
		for n := 0; n < 60; n++ {
			units := randomUnits(rng)
			ids := compiled.AppendInterned(nil, units)
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
			scoring := tab.Compile(policy)
			size := tab.Len()
			var counts Counts
			for n := 0; n < 60; n++ {
				units := randomUnits(rng)
				got := proj.AppendVector(nil, &counts, scoring.AppendIDs(nil, units))
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
		tab.Compile(BagOfWordsPolicy()).AppendInterned(nil, randomUnits(rng))
		tab.Compile(randomPolicy(rng)).AppendInterned(nil, randomUnits(rng))
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

// refAppendIDs is the abstraction compiled policies replaced, kept as
// their reference: per unit it probes the policy map for the unit's
// category, the table's presence-absence map, and the word table for a
// word unit's text.
func refAppendIDs(t *Table, dst []int32, units []annotate.Unit, p Policy, grow bool) []int32 {
	var paBuf [16]int32
	pa := paBuf[:0]
	for i := range units {
		u := &units[i]
		c := POSCategory(u.POS)
		if u.IsEntity() {
			c = EntityCategory(u.Entity)
		}
		rep, ok := p[c]
		if !ok {
			continue
		}
		id := int32(-1)
		switch {
		case rep == RepPA:
			if id = t.paID(c, grow); slices.Contains(pa, id) {
				continue
			}
			pa = append(pa, id)
		case rep == RepIV && u.IsEntity():
			id = t.entityID(u.Entity, textproc.Lower(u.Text), grow)
		case rep == RepIV:
			if lx := textproc.Normalize(u.Text); !lx.Stop {
				id = t.wordID(lx.Stem, grow)
			}
		}
		if id >= 0 {
			dst = append(dst, id)
		}
	}
	return dst
}

// refAppendVector is the AppendVector ordered vectors replaced, kept as
// their reference: vocabulary ids sorted, each run one term.
func refAppendVector(p Projection, ids []int32) Vector {
	var b []int
	for _, id := range ids {
		if int(id) < len(p) && p[id] >= 0 {
			b = append(b, int(p[id]))
		}
	}
	return countVector(b)
}

// TestDenseIndexNumbersCategories checks that denseIndex and
// denseCategory number the same categories the same way, and that
// every category annotation produces has a dense index.
func TestDenseIndexNumbersCategories(t *testing.T) {
	for k := 0; k < numDense; k++ {
		c := denseCategory(k)
		u := annotate.Unit{Text: "x", Entity: c.Entity, POS: c.POS}
		if got := denseIndex(&u); got != k {
			t.Errorf("denseIndex(%v) = %d, want %d", c, got, k)
		}
	}
	for _, tag := range []pos.Tag{pos.TagNN, pos.TagNNS, pos.TagNP, pos.TagVB, pos.TagVBD, pos.TagVBG,
		pos.TagVBN, pos.TagVBZ, pos.TagVBP, pos.TagMD, pos.TagJJ, pos.TagJJR, pos.TagJJS, pos.TagRB,
		pos.TagIN, pos.TagDT, pos.TagCC, pos.TagCD, pos.TagPRP, pos.TagPPS, pos.TagTO, pos.TagEX,
		pos.TagWDT, pos.TagWP, pos.TagWRB, pos.TagPOS, pos.TagUH, pos.TagSym, pos.TagPct} {
		if u := (annotate.Unit{Text: "x", POS: tag.Coarse()}); denseIndex(&u) < 0 {
			t.Errorf("coarse tag %q of %q has no dense index", tag.Coarse(), tag)
		}
	}
	for _, c := range ner.Categories {
		if u := (annotate.Unit{Text: "x", Entity: c}); denseIndex(&u) < 0 {
			t.Errorf("entity category %q has no dense index", c)
		}
	}
}

// TestCompiledMatchesMapPath trains two tables on the same snippets,
// one through a compiled policy and one through refAppendIDs, under
// the default, bag-of-words, mixed and RIG-chosen (AutoPolicy)
// policies, on units built by hand and units the annotator made (which
// carry their word-table entries). The tables must hold the same
// features under the same ids; scoring through a policy compiled after
// training must give refAppendIDs's ids, and AppendVector the sorting
// reference's vectors, term for term and weight for weight.
func TestCompiledMatchesMapPath(t *testing.T) {
	ann := annotate.New(nil)
	words := []string{"IBM", "acquired", "Daksh", "for", "$160", "million", "The", "new", "Chief",
		"Executive", "Officer", "of", "Acme", "Corp", "grew", "revenue", "10%", "in", "Q4", "2004",
		"quickly", "and", "Mr.", "Smith", "named", "Boston", "record", "profit", "it", "was"}
	snippet := func(rng *rand.Rand) []annotate.Unit {
		if rng.Intn(2) == 0 {
			return randomUnits(rng)
		}
		var b strings.Builder
		for k := rng.Intn(25); k >= 0; k-- {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteByte(' ')
		}
		return ann.Annotate(b.String())
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var policy Policy
		switch seed % 4 {
		case 0:
			policy = DefaultPolicy()
		case 1:
			policy = BagOfWordsPolicy()
		case 2:
			policy = randomPolicy(rng)
		default:
			var labeled []Labeled
			for n := 0; n < 80; n++ {
				labeled = append(labeled, Labeled{Units: snippet(rng), Label: rng.Intn(2) == 0})
			}
			policy = ChoosePolicy(labeled, AllCategories())
		}
		got, want := NewTable(), NewTable()
		training := got.Compile(policy)
		var lists [][]int32
		for n := 0; n < 60; n++ {
			units := snippet(rng)
			ids := training.AppendInterned(nil, units)
			if ref := refAppendIDs(want, nil, units, policy, true); !slices.Equal(ids, ref) {
				t.Fatalf("seed %d: interned %v, map path %v", seed, ids, ref)
			}
			lists = append(lists, ids)
		}
		if got.Len() != want.Len() {
			t.Fatalf("seed %d: tables hold %d and %d features", seed, got.Len(), want.Len())
		}
		for id := int32(0); id < int32(got.Len()); id++ {
			if got.Name(id) != want.Name(id) {
				t.Fatalf("seed %d: id %d is %q, map path %q", seed, id, got.Name(id), want.Name(id))
			}
		}
		proj := got.Project(got.Vocab(lists))
		scoring := got.Compile(policy)
		var counts Counts
		for n := 0; n < 60; n++ {
			units := snippet(rng)
			ids := scoring.AppendIDs(nil, units)
			if ref := refAppendIDs(got, nil, units, policy, false); !slices.Equal(ids, ref) {
				t.Fatalf("seed %d: scoring ids %v, map path %v", seed, ids, ref)
			}
			vec := proj.AppendVector(Vector{{ID: -1, W: 7}}, &counts, ids)
			if ref := refAppendVector(proj, ids); !reflect.DeepEqual(vec[1:], ref) || vec[0] != (Term{ID: -1, W: 7}) {
				t.Fatalf("seed %d: vector %v, sorting reference %v", seed, vec, ref)
			}
		}
	}
}
