package classify

// Serializable snapshots of the trained classifiers. Training is cheap
// here, but a production deployment trains once and serves many — and a
// reproduction must be able to pin the exact model an experiment used.
// All snapshots round-trip through encoding/json.

// NaiveBayesSnapshot is the serializable form of a NaiveBayes.
type NaiveBayesSnapshot struct {
	Model     EventModel         `json:"model"`
	LogPrior  [2]float64         `json:"logPrior"`
	LogLik    [2]map[int]float64 `json:"logLik"`
	LogUnseen [2]float64         `json:"logUnseen"`
}

// Snapshot exports the trained parameters.
func (nb *NaiveBayes) Snapshot() NaiveBayesSnapshot {
	s := NaiveBayesSnapshot{
		Model:     nb.model,
		LogPrior:  nb.logPrior,
		LogUnseen: nb.logUnseen,
	}
	for y := 0; y < 2; y++ {
		s.LogLik[y] = make(map[int]float64, len(nb.logLik[y]))
		for id, v := range nb.logLik[y] {
			s.LogLik[y][id] = v
		}
	}
	return s
}

// NaiveBayesFromSnapshot rebuilds a classifier from exported parameters.
// Prob reads slices as long as the largest feature id, so the ids
// should be those of a vocabulary: non-negative and dense.
func NaiveBayesFromSnapshot(s NaiveBayesSnapshot) *NaiveBayes {
	nb := &NaiveBayes{
		model:     s.Model,
		logPrior:  s.LogPrior,
		logUnseen: s.LogUnseen,
	}
	for y := 0; y < 2; y++ {
		nb.logLik[y] = make(map[int]float64, len(s.LogLik[y]))
		for id, v := range s.LogLik[y] {
			nb.logLik[y][id] = v
		}
	}
	return nb.densify()
}

// SVMSnapshot is the serializable form of an SVM.
type SVMSnapshot struct {
	W    map[int]float64 `json:"w"`
	Bias float64         `json:"bias"`
	A    float64         `json:"a"`
	B    float64         `json:"b"`
}

// Snapshot exports the trained parameters.
func (s *SVM) Snapshot() SVMSnapshot {
	w := make(map[int]float64, len(s.w))
	for id, v := range s.w {
		w[id] = v
	}
	return SVMSnapshot{W: w, Bias: s.bias, A: s.a, B: s.b}
}

// SVMFromSnapshot rebuilds a classifier from exported parameters.
func SVMFromSnapshot(snap SVMSnapshot) *SVM {
	w := make(map[int]float64, len(snap.W))
	for id, v := range snap.W {
		w[id] = v
	}
	return &SVM{w: w, bias: snap.Bias, a: snap.A, b: snap.B}
}

// LogRegSnapshot is the serializable form of a LogReg.
type LogRegSnapshot struct {
	W    map[int]float64 `json:"w"`
	Bias float64         `json:"bias"`
}

// Snapshot exports the trained parameters.
func (m *LogReg) Snapshot() LogRegSnapshot {
	w := make(map[int]float64, len(m.w))
	for id, v := range m.w {
		w[id] = v
	}
	return LogRegSnapshot{W: w, Bias: m.bias}
}

// LogRegFromSnapshot rebuilds a classifier from exported parameters.
func LogRegFromSnapshot(snap LogRegSnapshot) *LogReg {
	w := make(map[int]float64, len(snap.W))
	for id, v := range snap.W {
		w[id] = v
	}
	return &LogReg{w: w, bias: snap.Bias}
}
