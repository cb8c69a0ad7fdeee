package corpus

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"etap/internal/gazetteer"
)

// joined is the reference for Document.Text: the sentences joined by
// spaces.
func joined(d *Document) string {
	parts := make([]string, len(d.Sentences))
	for i, s := range d.Sentences {
		parts[i] = s.Text
	}
	return strings.Join(parts, " ")
}

// within reports whether s's bytes lie inside whole's.
func within(s, whole string) bool {
	if len(s) == 0 {
		return true
	}
	p, w := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(whole)))
	return p >= w && p+uintptr(len(s)) <= w+uintptr(len(whole))
}

// A generated world holds each document's text once: Text returns the
// body every sentence and the title slice, and copies nothing.
func TestTextHeldOnce(t *testing.T) {
	for _, tc := range goldenDigests {
		t.Run(tc.name, func(t *testing.T) {
			docs := NewGenerator(tc.cfg).World()
			for i := range docs {
				d := &docs[i]
				text := d.Text()
				if want := joined(d); text != want {
					t.Fatalf("%s: Text() = %q, want %q", d.ID, text, want)
				}
				for _, s := range d.Sentences {
					if !within(s.Text, text) {
						t.Fatalf("%s: sentence %q does not point into the body", d.ID, s.Text)
					}
				}
				if !within(d.Title, text) {
					t.Fatalf("%s: title %q does not point into the body", d.ID, d.Title)
				}
			}
			var sink string
			if allocs := testing.AllocsPerRun(3, func() {
				for i := range docs {
					sink = docs[i].Text()
				}
			}); allocs != 0 {
				t.Errorf("Text() over %d documents allocated %v times, want 0", len(docs), allocs)
			}
			_ = sink
		})
	}
}

// A document that is not as generated still gets the join: built by
// hand, decoded, or with its sentences replaced, appended, removed or
// dropped.
func TestTextJoinsChangedDocuments(t *testing.T) {
	g := NewGenerator(Config{Seed: 3})
	gen := g.RelevantDoc(MergersAcquisitions)
	n := len(gen.Sentences)
	edit := func(f func(ss []Sentence) []Sentence) Document {
		d := gen
		d.Sentences = f(slices.Clone(gen.Sentences))
		return d
	}
	var decoded Document
	raw, err := json.Marshal(gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	cases := map[string]Document{
		"hand-built": {Sentences: []Sentence{{Text: "Acme grew."}, {Text: "Rain fell."}}},
		"decoded":    decoded,
		"replaced":   edit(func(ss []Sentence) []Sentence { ss[1].Text = "Nothing happened."; return ss }),
		"same-bytes-elsewhere": edit(func(ss []Sentence) []Sentence {
			ss[0].Text = strings.Clone(ss[0].Text)
			return ss
		}),
		"appended":      edit(func(ss []Sentence) []Sentence { return append(ss, Sentence{Text: "More news."}) }),
		"removed-last":  edit(func(ss []Sentence) []Sentence { return ss[:n-1] }),
		"removed-first": edit(func(ss []Sentence) []Sentence { return ss[1:] }),
		"emptied":       edit(func(ss []Sentence) []Sentence { return ss[:0] }),
		"nil":           edit(func([]Sentence) []Sentence { return nil }),
		"merged": edit(func(ss []Sentence) []Sentence {
			ss[0].Text += " " + ss[1].Text
			return slices.Delete(ss, 1, 2)
		}),
	}
	for name, d := range cases {
		if got, want := d.Text(), joined(&d); got != want {
			t.Errorf("%s: Text() = %q, want %q", name, got, want)
		}
	}
	if got := gen.Text(); got != joined(&gen) {
		t.Errorf("editing copies changed the original: %q", got)
	}
}

// name.equal is string equality of the written names, for every pair of
// names the generator can compare: persons with persons, and companies
// (drawn in pieces, or pinned as one piece) with companies.
func TestNameEqualMatchesStrings(t *testing.T) {
	var persons, companies []name
	for _, f := range gazetteer.FirstNames {
		for _, l := range append(slices.Clone(gazetteer.LastNames), gazetteer.UnknownSurnames...) {
			persons = append(persons, name{f, l})
		}
	}
	for _, c := range gazetteer.CompanyCores {
		for _, s := range gazetteer.CompanySuffixes {
			companies = append(companies, name{c, s}, name{first: c + " " + s})
		}
	}
	for _, c := range append(slices.Clone(gazetteer.KnownOrgs), gazetteer.UnknownOrgCores...) {
		companies = append(companies, name{first: c})
	}
	for _, pair := range famousPairs {
		companies = append(companies, name{first: pair[0]}, name{first: pair[1]})
	}
	for _, names := range [][]name{persons, companies} {
		written := make([]string, len(names))
		for i, n := range names {
			written[i] = string(n.appendTo(nil))
		}
		for i, a := range names {
			for j, b := range names {
				if a.equal(b) != (written[i] == written[j]) {
					t.Fatalf("%+v.equal(%+v) = %v, written %q and %q", a, b, a.equal(b), written[i], written[j])
				}
			}
		}
	}
	a, b := name{"Blue", "Ridge"}, name{first: "Blue Ridge"}
	if allocs := testing.AllocsPerRun(100, func() {
		if !a.equal(b) || a.equal(persons[0]) {
			t.Fatal("equal mismatch")
		}
	}); allocs != 0 {
		t.Errorf("equal allocated %v times, want 0", allocs)
	}
}
