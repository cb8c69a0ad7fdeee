package classify

import (
	"math"

	"etap/internal/feature"
)

// EventModel selects the naïve Bayes event model.
type EventModel uint8

const (
	// Multinomial counts feature occurrences (the standard text model
	// of Nigam et al. [10]).
	Multinomial EventModel = iota
	// Bernoulli models binary feature presence.
	Bernoulli
)

// NaiveBayesConfig configures training.
type NaiveBayesConfig struct {
	// Model selects the event model; default Multinomial.
	Model EventModel
	// Alpha is the Laplace/Lidstone smoothing constant; 0 means 1.0.
	Alpha float64
	// VocabSize fixes the smoothing denominator's vocabulary size. 0
	// means "use the number of distinct features seen in training".
	// Setting it explicitly keeps probabilities comparable when the
	// training set is re-filtered between noise-elimination iterations.
	VocabSize int
	// ClassWeight scales the effective count of positive examples in
	// the prior (the paper oversamples pure positive data by 3; prior
	// balancing is the classifier-side equivalent). 0 means 1.
	ClassWeight float64
}

// NaiveBayes is a two-class naïve Bayes text classifier.
type NaiveBayes struct {
	model     EventModel
	logPrior  [2]float64
	logLik    [2]map[int]float64 // feature id -> log P(f|y)
	logUnseen [2]float64         // log-likelihood of an unseen feature
	// dense[y][id] is logLik[y][id], or logUnseen[y] for an id the map
	// lacks, for every id up to the largest the map holds: what Prob
	// reads. densify builds it once a model is trained or loaded.
	dense [2][]float64
}

// densify builds nb.dense from nb.logLik and returns nb.
func (nb *NaiveBayes) densify() *NaiveBayes {
	for y := 0; y < 2; y++ {
		n := 0
		for id := range nb.logLik[y] {
			n = max(n, id+1)
		}
		d := make([]float64, n)
		for id := range d {
			d[id] = nb.logUnseen[y]
		}
		for id, ll := range nb.logLik[y] {
			if id >= 0 { // no vocabulary assigns a negative id
				d[id] = ll
			}
		}
		nb.dense[y] = d
	}
	return nb
}

// TrainNaiveBayes fits the model on examples.
func TrainNaiveBayes(examples []Example, cfg NaiveBayesConfig) *NaiveBayes {
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 1.0
	}
	posWeight := cfg.ClassWeight
	if posWeight == 0 {
		posWeight = 1.0
	}

	// Count per-class feature occurrences (or document frequencies for
	// Bernoulli) and document counts.
	counts := [2]map[int]float64{{}, {}}
	var totals [2]float64 // total feature mass per class (multinomial)
	var docs [2]float64
	maxID := -1
	for _, ex := range examples {
		y := b2i(ex.Label)
		docs[y]++
		for _, t := range ex.X {
			if t.ID > maxID {
				maxID = t.ID
			}
			w := t.W
			if cfg.Model == Bernoulli {
				w = 1
			}
			counts[y][t.ID] += w
			totals[y] += w
		}
	}
	vocab := cfg.VocabSize
	if vocab <= 0 {
		vocab = maxID + 1
	}
	if vocab <= 0 {
		vocab = 1
	}

	nb := &NaiveBayes{model: cfg.Model}
	weighted := [2]float64{docs[0], docs[1] * posWeight}
	totalDocs := weighted[0] + weighted[1]
	for y := 0; y < 2; y++ {
		if totalDocs > 0 {
			nb.logPrior[y] = math.Log((weighted[y] + alpha) / (totalDocs + 2*alpha))
		} else {
			nb.logPrior[y] = math.Log(0.5)
		}
		nb.logLik[y] = make(map[int]float64, len(counts[y]))
		switch cfg.Model {
		case Multinomial:
			den := totals[y] + alpha*float64(vocab)
			for id, c := range counts[y] {
				nb.logLik[y][id] = math.Log((c + alpha) / den)
			}
			nb.logUnseen[y] = math.Log(alpha / den)
		case Bernoulli:
			den := docs[y] + 2*alpha
			for id, c := range counts[y] {
				nb.logLik[y][id] = math.Log((c + alpha) / den)
			}
			nb.logUnseen[y] = math.Log(alpha / den)
		}
	}
	return nb.densify()
}

// Prob returns P(positive | x) via Bayes' rule in log space.
func (nb *NaiveBayes) Prob(x feature.Vector) float64 {
	var logp [2]float64
	for y := 0; y < 2; y++ {
		lp := nb.logPrior[y]
		dense := nb.dense[y]
		for _, t := range x {
			ll := nb.logUnseen[y]
			if uint(t.ID) < uint(len(dense)) {
				ll = dense[t.ID]
			}
			w := t.W
			if nb.model == Bernoulli {
				w = 1
			}
			lp += w * ll
		}
		logp[y] = lp
	}
	// Normalize: p1 = 1 / (1 + exp(logp0 - logp1)).
	d := logp[0] - logp[1]
	if d > 700 {
		return 0
	}
	if d < -700 {
		return 1
	}
	return 1 / (1 + math.Exp(d))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
