package core

import (
	"encoding/json"
	"fmt"

	"etap/internal/classify"
	"etap/internal/feature"
	"etap/internal/rank"
	"etap/internal/train"
)

// DriverModel is the serializable form of a trained sales driver: the
// classifier parameters, vocabulary and abstraction policy needed to
// score new snippets exactly as the training-time system would. Smart
// queries and the orientation lexicon are carried along; the entity
// filter is a function and must be re-supplied on import (it only
// matters for re-training, not for scoring).
type DriverModel struct {
	ID           string                       `json:"id"`
	Title        string                       `json:"title"`
	SmartQueries []string                     `json:"smartQueries,omitempty"`
	Orientation  map[string]float64           `json:"orientation,omitempty"`
	Policy       map[string]string            `json:"policy"`
	Vocab        []string                     `json:"vocab"`
	Classifier   string                       `json:"classifier"` // "nb", "svm", "logreg"
	NaiveBayes   *classify.NaiveBayesSnapshot `json:"naiveBayes,omitempty"`
	SVM          *classify.SVMSnapshot        `json:"svm,omitempty"`
	LogReg       *classify.LogRegSnapshot     `json:"logReg,omitempty"`
}

// ExportDriver captures a trained driver for persistence.
func (s *System) ExportDriver(driverID string) (DriverModel, error) {
	td, ok := s.drivers[driverID]
	if !ok {
		return DriverModel{}, ErrUnknownDriver
	}
	m := DriverModel{
		ID:           td.spec.ID,
		Title:        td.spec.Title,
		SmartQueries: td.spec.SmartQueries,
		Policy:       td.policy.MarshalMap(),
		Vocab:        td.vocab.Names(),
	}
	if td.spec.Orientation != nil {
		m.Orientation = map[string]float64(td.spec.Orientation)
	}
	switch clf := td.clf.(type) {
	case *classify.NaiveBayes:
		snap := clf.Snapshot()
		m.Classifier, m.NaiveBayes = "nb", &snap
	case *classify.SVM:
		snap := clf.Snapshot()
		m.Classifier, m.SVM = "svm", &snap
	case *classify.LogReg:
		snap := clf.Snapshot()
		m.Classifier, m.LogReg = "logreg", &snap
	default:
		return DriverModel{}, fmt.Errorf("core: classifier %T is not serializable", td.clf)
	}
	return m, nil
}

// ImportDriver installs a previously exported driver. filter (optional)
// restores the entity filter for future re-training; scoring does not
// need it.
func (s *System) ImportDriver(m DriverModel, filter train.Filter) error {
	if m.ID == "" {
		return fmt.Errorf("core: driver model without ID")
	}
	if _, dup := s.drivers[m.ID]; dup {
		return fmt.Errorf("core: driver %q already present", m.ID)
	}
	var clf classify.Classifier
	switch m.Classifier {
	case "nb":
		if m.NaiveBayes == nil {
			return fmt.Errorf("core: nb model missing parameters")
		}
		// The classifier scores from slices as long as its largest
		// feature id, so an id is checked against the vocabulary first.
		for _, ll := range m.NaiveBayes.LogLik {
			for id := range ll {
				if id < 0 || id >= len(m.Vocab) {
					return fmt.Errorf("core: nb model feature id %d outside its %d-feature vocabulary", id, len(m.Vocab))
				}
			}
		}
		clf = classify.NaiveBayesFromSnapshot(*m.NaiveBayes)
	case "svm":
		if m.SVM == nil {
			return fmt.Errorf("core: svm model missing parameters")
		}
		clf = classify.SVMFromSnapshot(*m.SVM)
	case "logreg":
		if m.LogReg == nil {
			return fmt.Errorf("core: logreg model missing parameters")
		}
		clf = classify.LogRegFromSnapshot(*m.LogReg)
	default:
		return fmt.Errorf("core: unknown classifier kind %q", m.Classifier)
	}

	spec := SalesDriver{
		ID:           m.ID,
		Title:        m.Title,
		SmartQueries: m.SmartQueries,
		Filter:       filter,
	}
	if m.Orientation != nil {
		spec.Orientation = rank.Lexicon(m.Orientation)
	}
	s.drivers[m.ID] = &trainedDriver{
		spec:   spec,
		clf:    clf,
		vocab:  feature.VocabFromNames(m.Vocab),
		policy: feature.PolicyFromMap(m.Policy),
	}
	return nil
}

// MarshalDriver serializes a trained driver to JSON.
func (s *System) MarshalDriver(driverID string) ([]byte, error) {
	m, err := s.ExportDriver(driverID)
	if err != nil {
		return nil, err
	}
	return json.Marshal(m)
}

// UnmarshalDriver installs a driver from its JSON form.
func (s *System) UnmarshalDriver(data []byte, filter train.Filter) error {
	var m DriverModel
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("core: decoding driver model: %w", err)
	}
	return s.ImportDriver(m, filter)
}
