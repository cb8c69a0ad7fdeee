package feature

import (
	"sort"
	"strings"
	"testing"

	"etap/internal/annotate"
	"etap/internal/ner"
)

// extractNames abstracts units under p through a fresh table and
// returns the features' names, so the tests below read the id path in
// the names the policy documents.
func extractNames(units []annotate.Unit, p Policy) []string {
	t := NewTable()
	ids := t.Compile(p).AppendInterned(nil, units)
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = t.Name(id)
	}
	return names
}

func TestExtractDefaultPolicy(t *testing.T) {
	a := annotate.New(nil)
	units := a.Annotate("IBM acquired Daksh for $160 million.")
	feats := extractNames(units, DefaultPolicy())
	sort.Strings(feats)
	joined := strings.Join(feats, " ")

	// Entities abstracted to presence features, deduplicated.
	if !strings.Contains(joined, "ENT=ORG") {
		t.Errorf("missing ENT=ORG in %v", feats)
	}
	if strings.Count(joined, "ENT=ORG") != 1 {
		t.Errorf("ENT=ORG must appear once (PA dedup): %v", feats)
	}
	if !strings.Contains(joined, "ENT=CURRENCY") {
		t.Errorf("missing ENT=CURRENCY in %v", feats)
	}
	// Content verb kept as stemmed instance.
	if !strings.Contains(joined, "w=acquir") {
		t.Errorf("missing w=acquir in %v", feats)
	}
	// No raw company names in the feature space.
	if strings.Contains(joined, "ibm") || strings.Contains(joined, "daksh") {
		t.Errorf("entity instances leaked: %v", feats)
	}
}

func TestExtractBagOfWordsPolicy(t *testing.T) {
	a := annotate.New(nil)
	units := a.Annotate("IBM acquired Daksh.")
	feats := extractNames(units, BagOfWordsPolicy())
	joined := strings.Join(feats, " ")
	if !strings.Contains(joined, "ORG=ibm") || !strings.Contains(joined, "ORG=daksh") {
		t.Errorf("IV entities missing: %v", feats)
	}
}

func TestExtractDropsStopwordsAndClosedClass(t *testing.T) {
	a := annotate.New(nil)
	units := a.Annotate("The company said that it was growing.")
	feats := extractNames(units, DefaultPolicy())
	for _, f := range feats {
		if f == "w=the" || f == "w=that" || f == "w=it" || f == "w=was" {
			t.Errorf("stopword feature leaked: %v", feats)
		}
	}
}

func TestExtractStemsCollapseInflections(t *testing.T) {
	a := annotate.New(nil)
	p := DefaultPolicy()
	f1 := extractNames(a.Annotate("The board acquires startups."), p)
	f2 := extractNames(a.Annotate("The board acquired startups."), p)
	has := func(fs []string, w string) bool {
		for _, f := range fs {
			if f == w {
				return true
			}
		}
		return false
	}
	if !has(f1, "w=acquir") || !has(f2, "w=acquir") {
		t.Errorf("inflections not collapsed: %v vs %v", f1, f2)
	}
}

func TestExtractEmpty(t *testing.T) {
	if got := extractNames(nil, DefaultPolicy()); len(got) != 0 {
		t.Errorf("empty: %v", got)
	}
}

func TestExtractPAOnPOSCategory(t *testing.T) {
	units := []annotate.Unit{
		{Text: "quickly", POS: "rb"},
		{Text: "slowly", POS: "rb"},
	}
	p := Policy{POSCategory("rb"): RepPA}
	feats := extractNames(units, p)
	if len(feats) != 1 || feats[0] != "POS=rb" {
		t.Fatalf("got %v, want [POS=rb]", feats)
	}
}

func TestExtractRepDropRemovesCategory(t *testing.T) {
	units := []annotate.Unit{
		{Text: "IBM", Entity: ner.ORG},
		{Text: "acquired", POS: "vb"},
	}
	p := Policy{POSCategory("vb"): RepIV} // ORG unmapped -> dropped
	feats := extractNames(units, p)
	if len(feats) != 1 || feats[0] != "w=acquir" {
		t.Fatalf("got %v, want [w=acquir]", feats)
	}
}
