package classify

import (
	"math"

	"etap/internal/feature"
)

// TrainNaiveBayesEM implements the semi-supervised naïve Bayes of Nigam,
// McCallum, Thrun & Mitchell [10], which the paper cites as a usable
// classifier: train on the labeled examples, then alternate
//
//	E-step: probabilistically label the unlabeled vectors with the
//	        current model;
//	M-step: re-estimate the model from labeled counts plus the
//	        fractional unlabeled counts;
//
// until the expected labels stabilize or emIters is exhausted.
// unlabeledWeight (0 < w <= 1, 0 means 1) down-weights the unlabeled
// evidence relative to the labeled data, as in the EM-lambda variant.
func TrainNaiveBayesEM(labeled []Example, unlabeled []feature.Vector, cfg NaiveBayesConfig, emIters int, unlabeledWeight float64) *NaiveBayes {
	if emIters <= 0 {
		emIters = 5
	}
	if unlabeledWeight <= 0 || unlabeledWeight > 1 {
		unlabeledWeight = 1
	}

	nb := TrainNaiveBayes(labeled, cfg)
	if len(unlabeled) == 0 {
		return nb
	}

	prev := make([]float64, len(unlabeled))
	for iter := 0; iter < emIters; iter++ {
		// E-step.
		post := make([]float64, len(unlabeled))
		maxDelta := 0.0
		for i, x := range unlabeled {
			post[i] = nb.Prob(x)
			if d := math.Abs(post[i] - prev[i]); d > maxDelta {
				maxDelta = d
			}
		}
		prev = post

		// M-step with fractional counts.
		nb = trainNBFractional(labeled, unlabeled, post, cfg, unlabeledWeight)

		if iter > 0 && maxDelta < 1e-4 {
			break
		}
	}
	return nb
}

// trainNBFractional re-estimates the model from hard-labeled examples
// plus soft-labeled vectors (post[i] = P(positive | x_i)).
func trainNBFractional(labeled []Example, unlabeled []feature.Vector, post []float64, cfg NaiveBayesConfig, w float64) *NaiveBayes {
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 1.0
	}
	counts := [2]map[int]float64{{}, {}}
	var totals [2]float64
	var docs [2]float64
	maxID := -1

	accumulate := func(x feature.Vector, weight [2]float64) {
		docs[0] += weight[0]
		docs[1] += weight[1]
		for _, t := range x {
			if t.ID > maxID {
				maxID = t.ID
			}
			v := t.W
			if cfg.Model == Bernoulli {
				v = 1
			}
			for y := 0; y < 2; y++ {
				if weight[y] > 0 {
					counts[y][t.ID] += v * weight[y]
					totals[y] += v * weight[y]
				}
			}
		}
	}
	for _, ex := range labeled {
		var weight [2]float64
		weight[b2i(ex.Label)] = 1
		accumulate(ex.X, weight)
	}
	for i, x := range unlabeled {
		accumulate(x, [2]float64{w * (1 - post[i]), w * post[i]})
	}

	vocab := cfg.VocabSize
	if vocab <= 0 {
		vocab = maxID + 1
	}
	if vocab <= 0 {
		vocab = 1
	}

	nb := &NaiveBayes{model: cfg.Model}
	totalDocs := docs[0] + docs[1]
	for y := 0; y < 2; y++ {
		if totalDocs > 0 {
			nb.logPrior[y] = math.Log((docs[y] + alpha) / (totalDocs + 2*alpha))
		} else {
			nb.logPrior[y] = math.Log(0.5)
		}
		nb.logLik[y] = make(map[int]float64, len(counts[y]))
		var den float64
		if cfg.Model == Bernoulli {
			den = docs[y] + 2*alpha
		} else {
			den = totals[y] + alpha*float64(vocab)
		}
		for id, c := range counts[y] {
			nb.logLik[y][id] = math.Log((c + alpha) / den)
		}
		nb.logUnseen[y] = math.Log(alpha / den)
	}
	return nb.densify()
}
