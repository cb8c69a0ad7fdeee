package feature

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
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
