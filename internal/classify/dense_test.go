package classify

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"etap/internal/feature"
)

// refProb is NaiveBayes.Prob as it was before the dense per-class
// slices: a map lookup per term, logUnseen on a miss. It is the
// reference the dense form must match bit for bit.
func refProb(nb *NaiveBayes, x feature.Vector) float64 {
	var logp [2]float64
	for y := 0; y < 2; y++ {
		lp := nb.logPrior[y]
		for _, t := range x {
			ll, ok := nb.logLik[y][t.ID]
			if !ok {
				ll = nb.logUnseen[y]
			}
			w := t.W
			if nb.model == Bernoulli {
				w = 1
			}
			lp += w * ll
		}
		logp[y] = lp
	}
	d := logp[0] - logp[1]
	if d > 700 {
		return 0
	}
	if d < -700 {
		return 1
	}
	return 1 / (1 + math.Exp(d))
}

// randomVector draws a sparse vector over ids [0, ids): sorted, unique,
// with integer counts or, when fractional, arbitrary positive weights.
func randomVector(rng *rand.Rand, ids int, fractional bool) feature.Vector {
	var x feature.Vector
	for id := 0; id < ids; id++ {
		if rng.Intn(8) != 0 {
			continue
		}
		w := float64(1 + rng.Intn(3))
		if fractional {
			w = rng.Float64() * 3
		}
		x = append(x, feature.Term{ID: id, W: w})
	}
	return x
}

// TestDenseProbMatchesMaps checks that Prob, which reads dense
// per-class slices, returns the float64 bits of the map-based
// computation. Vectors use ids inside the training vocabulary
// ([0, 40)) and beyond it (up to 80), on both event models, on models
// trained by EM, and on every model rebuilt from its snapshot.
func TestDenseProbMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Each class leaves some ids out, so the ids a class never saw sit
	// inside its dense range as well as beyond it.
	var train []Example
	for i := 0; i < 300; i++ {
		label, x := rng.Intn(3) == 0, randomVector(rng, 40, false)
		skip := 7
		if label {
			skip = 5
		}
		x = slices.DeleteFunc(x, func(t feature.Term) bool { return t.ID%skip == 3 })
		train = append(train, Example{X: x, Label: label})
	}
	var unlabeled []feature.Vector
	for i := 0; i < 200; i++ {
		unlabeled = append(unlabeled, randomVector(rng, 40, false))
	}
	models := map[string]*NaiveBayes{
		"multinomial":                 TrainNaiveBayes(train, NaiveBayesConfig{}),
		"bernoulli":                   TrainNaiveBayes(train, NaiveBayesConfig{Model: Bernoulli}),
		"multinomial, fixed vocab":    TrainNaiveBayes(train, NaiveBayesConfig{VocabSize: 60, Alpha: 0.5, ClassWeight: 3}),
		"multinomial, no examples":    TrainNaiveBayes(nil, NaiveBayesConfig{}),
		"EM, multinomial":             TrainNaiveBayesEM(train[:30], unlabeled, NaiveBayesConfig{}, 5, 1),
		"EM, bernoulli, down-weights": TrainNaiveBayesEM(train[:30], unlabeled, NaiveBayesConfig{Model: Bernoulli}, 5, 0.3),
	}
	for name, nb := range models {
		models[name+", from snapshot"] = NaiveBayesFromSnapshot(nb.Snapshot())
	}
	for name, nb := range models {
		for i := 0; i < 2000; i++ {
			x := randomVector(rng, 80, i%4 == 0)
			got, want := nb.Prob(x), refProb(nb, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Prob(%v) = %v, the map-based computation %v", name, x, got, want)
			}
		}
	}
}

// TestNaiveBayesSnapshotJSONPinned pins the JSON bytes of one trained
// model's snapshot, so the dense slices Prob reads cannot leak into the
// snapshot format. The bytes were produced before those slices existed.
func TestNaiveBayesSnapshotJSONPinned(t *testing.T) {
	train := []Example{
		{X: feature.Vector{{ID: 0, W: 2}, {ID: 1, W: 1}}, Label: true},
		{X: feature.Vector{{ID: 1, W: 1}, {ID: 3, W: 1}}, Label: true},
		{X: feature.Vector{{ID: 2, W: 3}}, Label: false},
		{X: feature.Vector{{ID: 3, W: 1}, {ID: 4, W: 2}}, Label: false},
	}
	got, err := json.Marshal(TrainNaiveBayes(train, NaiveBayesConfig{}).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"model":0,"logPrior":[-0.6931471805599453,-0.6931471805599453],` +
		`"logLik":[{"2":-1.0116009116784799,"3":-1.7047480922384253,"4":-1.2992829841302609},` +
		`{"0":-1.2039728043259361,"1":-1.2039728043259361,"3":-1.6094379124341003}],` +
		`"logUnseen":[-2.3978952727983707,-2.3025850929940455]}`
	if string(got) != want {
		t.Errorf("snapshot JSON changed:\n got  %s\n want %s", got, want)
	}
}
