package core

import (
	"testing"

	"etap/internal/classify"
	"etap/internal/corpus"
)

func TestDriverExportImportRoundTrip(t *testing.T) {
	f := newFixture(t, 31, Config{Seed: 31})
	f.addDriver(t, corpus.ChangeInManagement, 20)
	id := string(corpus.ChangeInManagement)

	data, err := f.sys.MarshalDriver(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty model")
	}

	// Fresh system over the same web, model imported instead of trained.
	sys2 := New(f.web, Config{Seed: 31})
	if err := sys2.UnmarshalDriver(data, nil); err != nil {
		t.Fatal(err)
	}

	// Scores must agree exactly on arbitrary snippets.
	samples := append(f.gen.PurePositives(corpus.ChangeInManagement, 10),
		f.gen.BackgroundSnippets(10)...)
	for _, s := range samples {
		p1, err1 := f.sys.Score(id, s.Text)
		p2, err2 := sys2.Score(id, s.Text)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if p1 != p2 {
			t.Fatalf("scores diverge after round trip: %v vs %v on %q", p1, p2, s.Text)
		}
	}
}

func TestDriverExportImportSVMAndLogReg(t *testing.T) {
	for _, kind := range []ClassifierKind{LinearSVM, WeightedLogReg} {
		f := newFixture(t, 32, Config{Seed: 32, Classifier: kind})
		f.addDriver(t, corpus.MergersAcquisitions, 10)
		id := string(corpus.MergersAcquisitions)

		data, err := f.sys.MarshalDriver(id)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		sys2 := New(f.web, Config{Seed: 32})
		if err := sys2.UnmarshalDriver(data, nil); err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		for _, s := range f.gen.PurePositives(corpus.MergersAcquisitions, 5) {
			p1, _ := f.sys.Score(id, s.Text)
			p2, _ := sys2.Score(id, s.Text)
			if p1 != p2 {
				t.Fatalf("kind %d: scores diverge: %v vs %v", kind, p1, p2)
			}
		}
	}
}

func TestDriverExportPreservesOrientation(t *testing.T) {
	f := newFixture(t, 33, Config{Seed: 33})
	f.addDriver(t, corpus.RevenueGrowth, 10)
	id := string(corpus.RevenueGrowth)

	m, err := f.sys.ExportDriver(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Orientation) == 0 {
		t.Fatal("orientation lexicon lost in export")
	}
	sys2 := New(f.web, Config{Seed: 33})
	if err := sys2.ImportDriver(m, nil); err != nil {
		t.Fatal(err)
	}
	pages := f.web.Search(`"revenue growth"`, 20)
	events, err := sys2.ExtractEvents(id, pages, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	oriented := 0
	for _, ev := range events {
		if ev.Orientation != 0 {
			oriented++
		}
	}
	if len(events) > 0 && oriented == 0 {
		t.Error("imported driver lost orientation scoring")
	}
}

func TestImportDriverValidation(t *testing.T) {
	f := newFixture(t, 34, Config{Seed: 34})
	if err := f.sys.ImportDriver(DriverModel{}, nil); err == nil {
		t.Error("no error for empty model")
	}
	if err := f.sys.ImportDriver(DriverModel{ID: "x", Classifier: "unknown"}, nil); err == nil {
		t.Error("no error for unknown classifier kind")
	}
	if err := f.sys.ImportDriver(DriverModel{ID: "x", Classifier: "nb"}, nil); err == nil {
		t.Error("no error for missing nb parameters")
	}
	for _, id := range []int{-1, 2, 1 << 40} {
		nb := &classify.NaiveBayesSnapshot{LogLik: [2]map[int]float64{{0: -1}, {id: -1}}}
		if err := f.sys.ImportDriver(DriverModel{ID: "x", Classifier: "nb", Vocab: []string{"a", "b"}, NaiveBayes: nb}, nil); err == nil {
			t.Errorf("no error for nb feature id %d outside a 2-feature vocabulary", id)
		}
	}
	if err := f.sys.UnmarshalDriver([]byte("{"), nil); err == nil {
		t.Error("no error for malformed JSON")
	}
	// Duplicate import.
	f.addDriver(t, corpus.ChangeInManagement, 5)
	data, _ := f.sys.MarshalDriver(string(corpus.ChangeInManagement))
	if err := f.sys.UnmarshalDriver(data, nil); err == nil {
		t.Error("no error for duplicate driver import")
	}
}

func TestExportUnknownDriver(t *testing.T) {
	f := newFixture(t, 35, Config{Seed: 35})
	if _, err := f.sys.ExportDriver("ghost"); err != ErrUnknownDriver {
		t.Errorf("err = %v", err)
	}
}
